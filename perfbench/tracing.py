"""Spans recorded from outside the program, around calls into each layer.

installed() wraps the public functions in LAYERS and rebinds every name in
every loaded fiberqed module that refers to them, because cli and oracle do
`from .params import derive_rates` and the package re-exports most
functions.  Spans are kept in memory (name, start, end, parent, ok, counts)
and written out when the run ends.  A span's self time is its duration minus
the part covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

BENCH_SPAN = "bench.op"     # the benchmark's own time around each operation


def _grid_points(args, kwargs, result):
    return {"points": len(result.detunings)}


def _spectrum_points(args, kwargs, result):
    return {"points": len(args[0].detunings)}


def _profile_points(args, kwargs, result):
    import numpy as np      # not at module top: the launcher's import span covers numpy

    return {"points": int(np.broadcast(*args[1:4]).size)}


def _curve_points(args, kwargs, result):
    return {"points": len(result.points), "roots": sum(p.n_roots for p in result.points)}


#: module -> {public function: counter extractor or None}
LAYERS = {
    "params": {"derive_rates": None},
    "linear_response": {"transmission_spectrum": _grid_points},
    "normal_modes": {"peak_find": _spectrum_points, "decompose": None,
                     "reduced_spectrum": None},
    "fiber_mode": {"fit_simplified": None, "g_squared_exact": _profile_points},
    "saturation": {"solve_saturation": _curve_points},
    "oracle": {"run_validation": None, "bessel_k_series": None, "solve_dense": None},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.paused = False

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "ok": True, "counts": {}})
        self._stack.append(idx)
        return idx

    def close(self, idx: int, ok: bool = True, counts: dict | None = None) -> None:
        span = self.spans[idx]
        span["end"] = time.perf_counter()
        span["ok"] = ok
        if counts:
            span["counts"] = counts
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self.close(idx, ok)

    @contextmanager
    def pause(self):
        """Calls made inside (the output checks) record no spans."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx, ok=False)
            raise
        tracer.close(idx, counts=counter(args, kwargs, result) if counter else None)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function in every namespace that binds it; undo on exit.

    A function a later version of the package no longer has is skipped.
    """
    rebound = []
    for module_name, functions in LAYERS.items():
        module = importlib.import_module(f"fiberqed.{module_name}")
        for fname, counter in functions.items():
            original = getattr(module, fname, None)
            if original is None:
                continue
            wrapper = _wrap(tracer, f"{module_name}.{fname}", original, counter)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "fiberqed":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        rebound.append((mod, attr, original))
    try:
        yield
    finally:
        for mod, attr, original in rebound:
            setattr(mod, attr, original)


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, self_s, dur_s, failed, failed_s, failed_self_s, counts."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        agg = out[s["name"]]
        agg["calls"] += 1
        agg["self_s"] += dur - covered[i]
        agg["dur_s"] += dur
        if not s["ok"]:
            agg["failed"] += 1
            agg["failed_s"] += dur
            agg["failed_self_s"] += dur - covered[i]
        for key, value in s["counts"].items():
            agg[key] += value
    return out


# --------------------------------------------------------------------------
# import attribution

IMPORT_PACKAGES = {
    "import.cli_s": "fiberqed",
    "import.fiber_mode_s": "fiberqed.fiber_mode",
    "import.oracle_s": "fiberqed.oracle",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.mpmath_s": "mpmath",
}


def _in_package(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per package from `python -X importtime` output.

    A package's time is the summed cumulative time of its outermost entries
    (those with no ancestor entry in the same package), so it also counts
    submodules listed without their parent, as scipy's lazy loader does for
    scipy.optimize.  For "fiberqed" this is the whole `import fiberqed.cli`
    statement.  A package that is never imported reads 0.
    """
    entries = []                                    # (depth, module, seconds)
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3 \
                or not parts[1].strip().isdigit():
            continue                                # the header and other output
        name = parts[2]
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) * 1e-6))
    out = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    ancestors: list[tuple[int, str]] = []
    for depth, module, seconds in reversed(entries):    # parents before children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for metric, package in IMPORT_PACKAGES.items():
            if _in_package(module, package) and not any(
                _in_package(a, package) for _, a in ancestors
            ):
                out[metric] += seconds
        ancestors.append((depth, module))
    return out


def import_times(python: str, env: dict, cwd, runs: int = 3) -> dict[str, float]:
    """Median over fresh `python -X importtime -c "import fiberqed.cli"` runs."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import fiberqed.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, check=True)
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
