"""Span tracing of pcfield's public functions, from outside the package.

``instrument()`` rebinds each traced function under every name a pcfield
module holds it by (for example ``pcfield.simharness.seeded_map`` and
``pcfield.cli.min_nn_distance``), so calls between modules pass through a
wrapper that records a span: name, start, end and parent. Spans stay in
memory while a run is active and are reduced to self time (duration minus
the time covered by child spans) and call counts at the end.

A few wrappers also record counters at the same boundary: bytes moved by
lead-field save and load, the tracemalloc peak inside
``band_cross_spectrum``, and the number of eigendecompositions numpy was
asked for.

Run as a script, it traces one CLI command in its own process::

    python3 perfbench/tracer.py SPANS.json leadfield --builtin-1020 ...

which calls ``pcfield.cli.main(argv)`` and writes the spans, counters and
exit code to SPANS.json.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from pathlib import Path

#: Public pcfield functions traced, by defining module. Some are traced
#: only so that their time is not counted as their caller's self time.
TRACED = {
    "forward": (
        "synth_leadfield", "save_leadfield", "load_leadfield", "min_nn_distance",
        "min_norm_inverse", "read_pcf1", "write_pcf1", "read_voxels_csv",
        "read_electrodes_csv", "electrode_seed_voxels",
    ),
    "spectra": ("band_cross_spectrum", "read_epochs_csv", "write_epochs_csv"),
    "matcore": ("hermitian_eig",),
    "confield": (
        "partial_field", "classical_field", "seeded_map", "max_over_seeds",
        "write_map_csv", "read_map_csv", "save_factor",
    ),
    "simharness": ("simulate_eeg", "localization_error", "run_experiment"),
    "cli": ("main",),
}

_MODULES = ("pcfield", "forward", "spectra", "matcore", "confield", "simharness", "cli")


def _leadfield_files(path) -> list[Path]:
    """The PCF1 gain file and its two geometry sidecars (README layout)."""
    base = Path(path)
    stem = base.with_suffix("") if base.suffix else base
    return [
        base,
        stem.parent / f"{stem.name}.electrodes.csv",
        stem.parent / f"{stem.name}.voxels.csv",
    ]


def _file_bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths if p.is_file())


class Tracer:
    """In-memory span recorder; records nothing while ``active`` is false."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, key: str, amount: float = 1.0) -> None:
        if self.active:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def wrap(self, name: str, function):
        hook = _HOOKS.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                if hook is None:
                    return function(*args, **kwargs)
                return hook(self, function, args, kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Self seconds, inclusive seconds and call count per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        result: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            entry = result.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            entry["self_s"] += (end - start) - covered
            entry["total_s"] += end - start
            entry["calls"] += 1
        return result


def _save_leadfield_hook(tracer, function, args, kwargs):
    result = function(*args, **kwargs)
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    tracer.count("forward.bytes_written", _file_bytes(_leadfield_files(path)))
    return result


def _load_leadfield_hook(tracer, function, args, kwargs):
    path = kwargs.get("path", args[0] if args else None)
    tracer.count("forward.bytes_read", _file_bytes(_leadfield_files(path)))
    return function(*args, **kwargs)


def _band_cross_spectrum_hook(tracer, function, args, kwargs):
    tracemalloc.start()
    try:
        result = function(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    key = "spectra.band_cross_spectrum_peak_bytes"
    tracer.counters[key] = max(tracer.counters.get(key, 0.0), float(peak))
    return result


_HOOKS = {
    "forward.save_leadfield": _save_leadfield_hook,
    "forward.load_leadfield": _load_leadfield_hook,
    "spectra.band_cross_spectrum": _band_cross_spectrum_hook,
}


def instrument(tracer: Tracer) -> None:
    """Rebind every traced function in every pcfield namespace holding it."""
    import importlib

    import numpy as np

    modules = [
        importlib.import_module("pcfield" if m == "pcfield" else f"pcfield.{m}")
        for m in _MODULES
    ]
    for owner, names in TRACED.items():
        source = importlib.import_module(f"pcfield.{owner}")
        for name in names:
            original = getattr(source, name)
            wrapped = tracer.wrap(f"{owner}.{name}", original)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapped)

    # Counters only, no spans: every eigendecomposition numpy is asked for,
    # including the eigvalsh that CrossSpectrum runs at construction.
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            tracer.count("numpy.eigendecompositions")
            return _original(*args, **kwargs)

        setattr(np.linalg, name, counted)


def _trace_cli_command(out_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    instrument(tracer)
    import pcfield.cli

    tracer.active = True
    code = pcfield.cli.main(argv)
    tracer.active = False
    Path(out_path).write_text(
        json.dumps(
            {
                "exit_code": code,
                "summary": tracer.summary(),
                "counters": tracer.counters,
            }
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(_trace_cli_command(sys.argv[1], sys.argv[2:]))
