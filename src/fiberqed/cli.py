"""Command-line front end: config parsing, subcommands, CSV and SVG output.

Config files are line oriented: `[section]` headers, `key = value` pairs and
`#` comments.  `_DEFAULTS` is the one table of sections and keys: a key's
default is the reference experimental configuration, and its type is the
type of its default, so an empty file is a valid config.  The `[physical]`
keys and the `g1_eff`/`g2_eff` keys of `[atoms]` are the fields of
`params.PhysicalConfig`, with its defaults; a field whose metadata carries
"mhz" is quoted in MHz, the others keep their SI units (lengths in meters).
Unknown keys are a hard error to guard against typos in physics parameters.

`run()` is the process entry point of both `fiberqed` and
`python -m fiberqed.cli`; `main(argv)` is the same command without the exit,
for callers in a running interpreter.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import math
import sys
import types
from dataclasses import fields
from pathlib import Path

# numpy and the physics modules are imported by the commands that use them
from .params import (DerivedRates, ModeFunctionParams, PhysicalConfig, _mhz_table, check_saturation_choice,
                     derive_rates, mhz, to_mhz, rate_report)


class ConfigError(Exception):
    pass


#: PhysicalConfig fields that are set in [atoms]; all others are set in [physical].
_ATOM_KEYS = ("g1_eff", "g2_eff")
_LOADINGS = ("none", "cavity1", "cavity2", "both")
#: The [mode] geometry keys: ModeFunctionParams' fields but wavelength ([physical] lambda_probe).
_GEOMETRY = tuple(f.name for f in fields(ModeFunctionParams) if f.name != "wavelength")


def _quoted(in_atoms: bool) -> dict:
    """PhysicalConfig fields of [atoms] or of [physical], defaulting to their quoted values."""
    return {f.name: f.metadata.get("mhz", f.default)
            for f in fields(PhysicalConfig) if (f.name in _ATOM_KEYS) == in_atoms}


#: section -> {key: default}, in the order format_config writes them.
_DEFAULTS = {
    "physical": _quoted(False),
    "probe": {"grid_min": -30.0, "grid_max": 30.0, "grid_points": 601},     # MHz, MHz, points
    "atoms": {"loading": "both", **_quoted(True)},      # loading: none | cavity1 | cavity2 | both
    "saturation": {
        "which_cavity": 1,      # k: g0 is [physical] g{k}_0, N_eff ([atoms] g{k}_eff / g0)^2
        "model": "closed_form",
        "sigma_y_over_x0": 0.0,
        "power_min_pW": 1.0,
        "power_max_pW": 1e6,
        "power_points": 61,
    },
    "mode": {name: getattr(ModeFunctionParams, name) for name in _GEOMETRY},    # checked when the fit is made
    "output": {"directory": ".", "formats": "csv"},     # formats: comma separated csv, svg
}


def _typed(default, raw: str):
    """A config value read as the type of its default; a string is stripped."""
    return {int: int, float: float}.get(type(default), str.strip)(raw)


class RunConfig(types.SimpleNamespace):
    """A run's config: one SimpleNamespace of keys per _DEFAULTS section, equal by value."""

    def __init__(self) -> None:
        super().__init__(**{section: types.SimpleNamespace(**keys) for section, keys in _DEFAULTS.items()})

    def physical_config(self) -> PhysicalConfig:
        values = {**vars(self.physical), **vars(self.atoms)}
        return PhysicalConfig(**{
            f.name: mhz(values[f.name]) if "mhz" in f.metadata else values[f.name]
            for f in fields(PhysicalConfig)
        })

    def loaded_couplings(self) -> tuple[float, float]:
        loading = self.atoms.loading
        return (
            mhz(self.atoms.g1_eff) if loading in ("cavity1", "both") else 0.0,
            mhz(self.atoms.g2_eff) if loading in ("cavity2", "both") else 0.0,
        )

    def mode_fit(self) -> fiber_mode.SimplifiedFit:
        """The simplified profile fitted on the [mode] geometry at [physical] lambda_probe."""
        from . import fiber_mode
        return fiber_mode.fit_simplified(ModeFunctionParams(
            wavelength=self.physical.lambda_probe,
            **{name: getattr(self.mode, name) for name in _GEOMETRY},
        ))

    def saturation_config(self, rates: DerivedRates) -> saturation.SaturationConfig:
        """The SaturationConfig of [saturation] (see which_cavity) at derive_rates(physical_config())."""
        import numpy as np
        from . import saturation
        s, k = self.saturation, self.saturation.which_cavity
        g0, g_eff = getattr(self.physical, f"g{k}_0"), getattr(self.atoms, f"g{k}_eff")
        try:
            n_eff = (g_eff / g0) ** 2
        except ArithmeticError:     # g0 = 0, or the square overflows
            n_eff = math.inf
        if not 0.0 < n_eff < math.inf:
            raise ConfigError(f"N_eff = ([atoms] g{k}_eff / [physical] g{k}_0)^2 = ({g_eff!r} / {g0!r})^2 "
                              f"is {n_eff!r}; it must be positive and finite")
        if rates.gamma_perp > 0.0:      # else solve_saturation names the undamped atoms
            try:
                saturation.saturation_photon_number(mhz(g0), rates)
            except ValueError as exc:
                raise ConfigError(f"[physical] g{k}_0 = {g0!r} with [physical] gamma_par = "
                                  f"{self.physical.gamma_par!r} gives no positive, finite n_sat") from exc
        grid = np.geomspace(s.power_min_pW * 1e-12, s.power_max_pW * 1e-12, s.power_points)
        fit = self.mode_fit()
        return saturation.SaturationConfig(
            which_cavity=k, g0=mhz(g0), N_eff=n_eff, A_mf=fit.A_mf,
            power_grid=grid, model=s.model, sigma_y_over_x0=s.sigma_y_over_x0,
            q_prime_x0=fit.qprime * fit.params.r0,
        )


def parse_config(text: str, lines: dict | None = None) -> RunConfig:
    """Parse config text, then the lines {section: {key: value}} that win over it, into a RunConfig."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    cp.optionxform = str
    try:
        cp.read_string(text)
        cp.read_dict(lines or {})
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    cfg = RunConfig()
    for section in cp.sections():
        if section not in _DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        target, known = getattr(cfg, section), _DEFAULTS[section]
        for key, raw in cp.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                value = _typed(known[key], raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key!r} in [{section}]: {raw!r}"
                ) from exc
            setattr(target, key, value)

    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    if cfg.probe.grid_points < 2 or not -math.inf < cfg.probe.grid_min < cfg.probe.grid_max < math.inf:
        raise ConfigError("probe grid needs at least 2 points and finite grid_min < grid_max")
    if not mhz(cfg.probe.grid_max) - mhz(cfg.probe.grid_min) < math.inf:     # else linspace makes NaN
        raise ConfigError(f"[probe] grid_min={cfg.probe.grid_min!r} to grid_max={cfg.probe.grid_max!r} MHz "
                          "overflows in rad/s")
    s = cfg.saturation
    for key in ("power_min_pW", "power_max_pW"):
        if not 0.0 < getattr(s, key) * 1e-12 < math.inf:        # NaN, and 0 once in watts, included
            raise ConfigError(f"[saturation] {key}={getattr(s, key)!r} must be positive and finite, "
                              "in watts too")
    if s.power_points < 1:
        raise ConfigError(f"[saturation] power_points={s.power_points!r} must be at least 1")
    if s.power_points > 1 and not s.power_min_pW < s.power_max_pW:
        raise ConfigError("[saturation] power_min_pW must be below power_max_pW for power_points > 1")
    try:
        cfg.physical_config()       # a PhysicalConfig checks its fields when built
        check_saturation_choice(s.which_cavity, s.model, s.sigma_y_over_x0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.atoms.loading not in _LOADINGS:
        raise ConfigError(f"unknown atom loading condition {cfg.atoms.loading!r}")
    for fmt in cfg.output.formats.split(","):
        if fmt.strip() not in ("csv", "svg"):
            raise ConfigError(f"unknown output format {fmt.strip()!r}")


def format_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig back to config-file text (round-trip safe)."""
    lines = []
    for section, keys in _DEFAULTS.items():
        target = getattr(cfg, section)
        lines.append(f"[{section}]")
        for key in keys:
            value = getattr(target, key)
            lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _fmt(column) -> list:
    """A CSV column, flattened, as text: numbers with .9g, strings (a branch) unchanged."""
    import numpy as np
    a = np.asarray(column).ravel()
    return a.tolist() if a.dtype.kind == "U" else [f"{x:.9g}" for x in a.tolist()]


def write_svg_lineplot(path: Path, x, y, xlabel: str, ylabel: str, logx: bool = False) -> None:
    """Minimal line-plot SVG; convenience rendering only, CSV is canonical."""
    import numpy as np
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if logx:
        x = np.log10(x)
    w, h, margin = 640, 480, 60
    x0, x1 = float(np.min(x)), float(np.max(x))
    y0, y1 = float(np.min(y)), float(np.max(y))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    sx = margin + (x - x0) / (x1 - x0) * (w - 2 * margin)
    sy = h - margin - (y - y0) / (y1 - y0) * (h - 2 * margin)
    pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(sx.tolist(), sy.tolist()))
    xtag = f"log10({xlabel})" if logx else xlabel
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{margin}" y1="{h - margin}" x2="{w - margin}" y2="{h - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{h - margin}" stroke="black"/>',
        f'<text x="{w // 2}" y="{h - margin // 3}" text-anchor="middle" font-size="14">{xtag}</text>',
        f'<text x="{margin // 3}" y="{h // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 {margin // 3} {h // 2})">{ylabel}</text>',
        f'<text x="{margin}" y="{h - margin + 20}" font-size="12">{x0:.4g}</text>',
        f'<text x="{w - margin}" y="{h - margin + 20}" text-anchor="end" font-size="12">{x1:.4g}</text>',
        f'<text x="{margin - 5}" y="{h - margin}" text-anchor="end" font-size="12">{y0:.4g}</text>',
        f'<text x="{margin - 5}" y="{margin}" text-anchor="end" font-size="12">{y1:.4g}</text>',
        f'<polyline points="{pts}" fill="none" stroke="crimson" stroke-width="1.5"/>',
        "</svg>",
    ]
    path.write_text("\n".join(svg) + "\n")


def _emit(cfg: RunConfig, name: str, header: str, columns, plot=None) -> None:
    """Write <name>.csv into the output directory, one row per element of the flattened
    columns; with svg among the output formats, also <name>.svg of plot(), which returns
    the arguments of write_svg_lineplot after its path.  CSV is always written."""
    out = Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    with (out / f"{name}.csv").open("w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*map(_fmt, columns)))
    if plot is not None and "svg" in [f.strip() for f in cfg.output.formats.split(",")]:
        write_svg_lineplot(out / f"{name}.svg", *plot())


def cmd_params(cfg: RunConfig, args) -> int:
    print(rate_report(cfg.physical_config()))
    return 0


def cmd_spectrum(cfg: RunConfig, args) -> int:
    import numpy as np
    from . import linear_response
    rates = derive_rates(cfg.physical_config())
    g = np.array([cfg.loaded_couplings()])     # (g1, g2), then each band's pair
    if args.band is not None:   # an empty ensemble stays empty, a shifted coupling stops at 0
        shifts = mhz(args.band) * np.array([[-1.0], [1.0]])
        g = np.concatenate([g, np.where(g > 0.0, np.maximum(g + shifts, 0.0), 0.0)])
    grid = np.linspace(mhz(cfg.probe.grid_min), mhz(cfg.probe.grid_max), cfg.probe.grid_points)
    t = linear_response.transmission_spectrum(rates, g[:, :1], g[:, 1:], grid=grid).transmission
    grid_mhz, header = to_mhz(grid), "delta_MHz,transmission"
    _emit(cfg, "spectrum", header, (grid_mhz, t[0]),
          plot=lambda: (grid_mhz, t[0], "detuning (MHz)", "transmission"))
    for tag, row in zip(("low", "high"), t[1:]):
        _emit(cfg, f"spectrum_band_{tag}", header, (grid_mhz, row))
    return 0


def cmd_normal_modes(cfg: RunConfig, args) -> int:
    from . import normal_modes
    rates = derive_rates(cfg.physical_config())
    g1, g2 = cfg.loaded_couplings()
    summary = normal_modes.decompose(rates, g1, g2)
    rows = [(name, getattr(summary, "kappa_plus" if name == "kappa_minus" else name)) for name in (
        "v_tilde", "gd1", "gd2", "kappa_d", "kappa_plus", "kappa_minus",    # both bright modes decay alike
        "splitting_bright", "rabi_splitting")]
    if args.kv:
        for name, value in rows:
            print(f"{name}={to_mhz(value)!r}")
        print(f"resolved={summary.resolved}")
    else:
        print(_mhz_table("quantity", rows, 4))
        if not summary.resolved:
            print("(dark-mode doublet unresolved: Rabi radicand is negative)")
    return 0


def cmd_saturation(cfg: RunConfig, args) -> int:
    from . import saturation
    rates = derive_rates(cfg.physical_config())
    curve = saturation.solve_saturation(
        cfg.saturation_config(rates), rates, lambda_probe=cfg.physical.lambda_probe
    )
    powers, t, n_roots, branch = zip(*curve.points)
    p_pw = [p * 1e12 for p in powers]
    _emit(cfg, "saturation", "P_in_pW,transmission,n_roots,branch", (p_pw, t, n_roots, branch),
          plot=lambda: (p_pw, t, "input power (pW)", "transmission", True))
    return 0


def cmd_mode_profile(cfg: RunConfig, args) -> int:
    import numpy as np
    from . import fiber_mode
    fit = cfg.mode_fit()
    p = fit.params
    r, phi, z = fiber_mode._profile_domain(p, 31, 5, 9)       # the fit's domain, more coarsely
    grid = np.ix_(r, phi, z)        # an open mesh: the Bessel functions see only the radii
    rr, pp, zz = np.broadcast_arrays(*grid)
    columns = (rr * 1e9, pp, zz * 1e9, fiber_mode.g_squared_exact(p, *grid),
               fiber_mode.g_squared_simplified(fit, *grid))
    _emit(cfg, "mode_profile", "r_nm,phi_rad,z_nm,g2_exact,g2_simplified", columns,
          plot=lambda: (r * 1e9, fiber_mode.g_squared_exact(p, r, 0.0, 0.0), "r (nm)", "g^2 / g0^2"))
    return 0


def cmd_validate(cfg: RunConfig, args) -> int:
    from . import oracle    # only validate needs the oracles
    results = oracle.run_validation(cfg.physical_config())
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name}: max error {res.max_error:.3e} (tolerance {res.tolerance:.1e})")
    return 0 if all(res.passed for res in results) else 3


_COMMANDS = {
    "params": cmd_params,
    "spectrum": cmd_spectrum,
    "normal-modes": cmd_normal_modes,
    "saturation": cmd_saturation,
    "mode-profile": cmd_mode_profile,
    "validate": cmd_validate,
}


def run_subcommand(name: str, cfg: RunConfig, args=None) -> int:
    """Check --band, then dispatch a subcommand; args carries the CLI-only flags, by default the
    parser's.  The library names each numeric failure and emits no numpy warning: nothing is masked."""
    if name not in _COMMANDS:
        raise ConfigError(f"unknown subcommand {name!r}")
    args = args or _build_parser().parse_args([name])
    if args.band is not None:   # the shifted couplings are squared in rad/s
        shifted = max(cfg.loaded_couplings()) + mhz(args.band)
        if not (args.band > 0.0 and shifted * shifted < math.inf):     # NaN fails too
            raise ConfigError(f"--band {args.band!r} must be positive and finite, and so must "
                              "the square in (rad/s)^2 of each coupling it shifts")
    return _COMMANDS[name](cfg, args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fiberqed", description=(
        "Fiber-coupled two-cavity QED model: rates, spectra, normal modes, saturation."))
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to config file")
    parser.add_argument("--out", dest="output.directory", metavar="OUT", help="output directory")
    parser.add_argument("--svg", dest="output.formats", action="store_const", const="csv,svg",
                        help="also emit SVG plots")
    parser.add_argument("--grid", metavar="MIN:MAX:POINTS", help="detuning grid in MHz, e.g. -30:30:601")
    parser.add_argument("--lf", dest="physical.Lf", metavar="LF", type=float,
                        help="connecting fiber length override (m)")
    parser.add_argument("--atoms", dest="atoms.loading", choices=_LOADINGS,
                        help="atom loading condition override")
    parser.add_argument("--band", type=float, metavar="MHZ",
                        help="also emit spectra with both couplings shifted by +/- this amount")
    parser.add_argument("--kv", action="store_true", help="normal-modes: print key=value lines")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    lines = {}      # a flag is the config line that its dest, "section.key", names
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            lines.setdefault(section, {})[key] = value
    try:
        text = Path(args.config).read_text() if args.config is not None else ""
        if args.grid is not None:       # --grid is the three [probe] lines
            if len(parts := args.grid.split(":")) != len(_DEFAULTS["probe"]):
                raise ConfigError(f"bad --grid specification {args.grid!r}")
            lines["probe"] = dict(zip(_DEFAULTS["probe"], parts))
        return run_subcommand(args.command, parse_config(text, lines), args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """The process entry point: run main() on sys.argv and exit with its code."""
    # A CLI process is short-lived, and once numpy is imported the collector tracks some
    # 20 000 objects, 9 000 of them numpy's.  Collections would walk them while the command
    # runs and again at interpreter shutdown, though the exit frees them all anyway: so the
    # collector is off while main runs, and what is alive at the end is frozen out of the
    # shutdown collections.  sys.exit keeps the normal exit path and its flushes; os._exit
    # would skip them.
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
