"""One benchmark workload in a fresh process; prints one JSON line.

``run.py`` starts this script with the BLAS thread variables already set,
so they take effect before numpy loads. The workload generates its inputs
from ``--seed``, times a closed loop (one caller, one request at a time)
for ``--seconds``, checks every output it produced, and reports:

* untraced (``--trace 0``): set-up time, per-unit latency, throughput and
  peak RSS;
* traced (``--trace 1``): half the time untraced, half with spans recorded
  around pcfield's public functions, reduced to per-layer self time and
  call counts per unit of work, plus the tracing overhead.

A *unit* is one experiment (``ref_study``), one seven-command pipeline
(``cli_pipeline``) or one dense pass, both bands (``dense_montage``).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import pcfield as pc
from run import CLI_STAGES, THREAD_VARS
from tracer import Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent

SIZES = {
    "full": {
        "study_experiments": 300,
        "cli_grid": 0.07,
        "dense_electrodes": 128,
        "dense_grid": 0.045,
        "dense_epochs": 400,
        "pairwise_samples": 16,
    },
    "small": {
        "study_experiments": 8,
        "cli_grid": 0.145,
        "dense_electrodes": 32,
        "dense_grid": 0.1,
        "dense_epochs": 64,
        "pairwise_samples": 4,
    },
}

#: Analysis bands of the dense montage, Hz; both share one lead field.
DENSE_BANDS = ((4.0, 7.0), (8.0, 12.0))
DENSE_SAMPLES = 256
DENSE_RATE = 256.0

#: Sampled W W* entries must match pairwise_partial to this, relative to
#: the field's unit diagonal.
PAIRWISE_RTOL = 1e-9
#: scores.csv must match the in-process localization error to this.
SCORE_RTOL = 1e-9
#: A partial composite "hits" when both sources lie within this many
#: grid spacings of its two peaks (acceptance criterion 6).
HIT_SPACINGS = 2.0
#: Row norms of a partial factor may deviate from 1 by this much.
UNIT_NORM_TOL = 1e-10
#: Sampled lagged seed-map values must match the lagged measure of
#: pairwise_partial to this (values lie in [0, 1]).
MAP_ATOL = 1e-6


# ---------------------------------------------------------------------------
# bookkeeping


class Outcome:
    """Operations and output checks attempted, and which of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, int] = {}
        self.errors: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.checks[name] = self.checks.get(name, 0) + 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{name}: {detail}")

    def guarded(self, name: str):
        """Decorate a unit so that an exception counts as a failed operation.

        The failed unit returns None, which the loops do not verify.
        """

        def decorate(op):
            def run(index):
                try:
                    return op(index)
                except Exception:
                    self.check(name, False, traceback.format_exc(limit=4))
                    return None

            return run

        return decorate


def median_setup(build, budget_s: float = 1.0):
    """Run ``build`` at least 3 times; return (median seconds, last result).

    Repeats while under ``budget_s`` (at most 25 times). Inputs are a pure
    function of the seed, so every repetition builds the same thing and
    the median is a steady set-up time.
    """
    times = []
    result = None
    while len(times) < 3 or (sum(times) < budget_s and len(times) < 25):
        result = None  # release the previous inputs before rebuilding
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def timed_loop(seconds: float, op, verify=None):
    """Closed loop: run ``op(i)`` until the next unit would overrun.

    At least one unit always runs. ``verify(i, output)`` checks each
    unit's output outside its timed window. Returns the unit durations.
    """
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        index = len(durations)
        began = time.perf_counter()
        output = op(index)
        durations.append(time.perf_counter() - began)
        if verify is not None and output is not None:
            verify(index, output)
        del output  # let the unit's outputs go before the next unit runs
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(durations) > seconds:
            return durations


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def latency_metrics(durations) -> dict[str, float]:
    return {
        "op_ms_p50": statistics.median(durations) * 1e3,
        "op_ms_p95": nearest_rank(durations, 0.95) * 1e3,
        "throughput_per_s": len(durations) / sum(durations),
    }


def derived_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


# ---------------------------------------------------------------------------
# provenance


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unavailable"


def effective_blas_threads() -> int | None:
    """Ask the loaded OpenBLAS (or MKL) how many threads it will use."""
    try:
        with open("/proc/self/maps") as handle:
            libraries = {
                line.split()[-1]
                for line in handle
                if "blas" in line.lower() or "mkl" in line.lower()
            }
    except OSError:
        return None
    getters = (
        "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
        "openblas_get_num_threads", "MKL_Get_Max_Threads",
    )
    for path in sorted(libraries):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in getters:
            if hasattr(library, name):
                getter = getattr(library, name)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pcfield": pc.__version__,
        "blas": blas_name,
        "cpu_count": os.cpu_count(),
        "threads_requested": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads_effective": effective_blas_threads(),
    }


# ---------------------------------------------------------------------------
# layer metrics from a trace


def layer_metrics(summary, counters, units: int, spectra: int) -> dict[str, float]:
    """Self seconds and calls per unit of work, counters per unit.

    ``summary`` is ``Tracer.summary()`` output; per-spectrum counts divide
    by the number of cross-spectra estimated in the traced section.
    """
    metrics: dict[str, float] = {}
    for name, entry in summary.items():
        metrics[f"{name}_s"] = entry["self_s"] / units
        metrics[f"{name}.calls"] = entry["calls"] / units
    for key in ("forward.bytes_written", "forward.bytes_read"):
        metrics[key] = counters.get(key, 0.0) / units
    metrics["spectra.band_cross_spectrum_peak_mb"] = (
        counters.get("spectra.band_cross_spectrum_peak_bytes", 0.0) / 2**20
    )
    if spectra:
        eig_calls = summary.get("matcore.hermitian_eig", {}).get("calls", 0)
        metrics["matcore.hermitian_eig_calls"] = eig_calls / spectra
        metrics["matcore.eigendecompositions_per_spectrum"] = (
            counters.get("numpy.eigendecompositions", 0.0) / spectra
        )
    return metrics


def spectra_estimated(summary) -> int:
    return summary.get("spectra.band_cross_spectrum", {}).get("calls", 0)


def overhead_metrics(untraced, traced) -> dict[str, float]:
    plain = statistics.median(untraced)
    with_spans = statistics.median(traced)
    return {
        "trace.overhead_ms": (with_spans - plain) * 1e3,
        "trace.overhead_ratio": (with_spans - plain) / plain,
    }


def traced_loop(tracer: Tracer, seconds: float, op, verify):
    """Run each unit twice, untraced then traced, until the time is spent.

    Pairing the two runs of one input keeps warm-up and input mix out of
    the tracing overhead. Spans are kept from the traced runs only, and
    output checks run with tracing off. Returns both duration lists.
    """
    untraced: list[float] = []
    traced: list[float] = []
    tracer.reset()
    start = time.perf_counter()
    while True:
        index = len(traced)
        for tracing, durations in ((False, untraced), (True, traced)):
            tracer.active = tracing
            began = time.perf_counter()
            try:
                output = op(index)
            finally:
                tracer.active = False
            durations.append(time.perf_counter() - began)
            if output is not None:
                verify(index, output)
            del output
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(traced) > seconds:
            return untraced, traced


# ---------------------------------------------------------------------------
# ref_study: the paper's reference geometry, many small experiments


def ref_study(args, size, tracer, outcome):
    count = size["study_experiments"]

    def build():
        leadfield = pc.synth_leadfield(pc.builtin_1020_electrodes(), pc.spherical_grid())
        configs = [pc.SimulationConfig(seed=s) for s in derived_seeds(args.seed, count)]
        return leadfield, configs

    setup_s, (leadfield, configs) = median_setup(build)
    errors = []

    @outcome.guarded("run_experiment")
    def op(index):
        report = pc.run_experiment(configs[index % count], leadfield)
        return report.partial_error, report.classical_error

    def verify(index, output):
        partial, classical = output
        errors.append(partial)
        outcome.check(
            "partial_localizes_and_beats_classical",
            partial <= HIT_SPACINGS and partial <= classical,
            f"seed {configs[index % count].seed}: partial {partial}, classical {classical}",
        )

    def hit_rate():
        return sum(e <= HIT_SPACINGS for e in errors) / max(len(errors), 1)

    if args.trace:
        untraced, traced = traced_loop(tracer, args.seconds, op, verify)
        summary = tracer.summary()
        metrics = layer_metrics(
            summary, tracer.counters, len(traced), spectra_estimated(summary)
        )
        metrics.update(overhead_metrics(untraced, traced))
        metrics["simharness.partial_hit_rate"] = hit_rate()
        return metrics, {}

    durations = timed_loop(args.seconds, op, verify)
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(), **latency_metrics(durations)}
    named = {
        "setup_s": (setup_s, "s"),
        "study_throughput_per_s": (metrics["throughput_per_s"], "1/s"),
        "experiment_ms_p50": (metrics["op_ms_p50"], "ms"),
        "experiment_ms_p95": (metrics["op_ms_p95"], "ms"),
        "partial_hit_rate": (hit_rate(), "ratio"),
        "experiments": (len(durations), "count"),
    }
    return metrics, named


def default_threads_diagnostic(args, size):
    """ref_study with BLAS threading left at its default (ungated)."""
    leadfield = pc.synth_leadfield(pc.builtin_1020_electrodes(), pc.spherical_grid())
    seeds = derived_seeds(args.seed, size["study_experiments"])

    def op(index):
        pc.run_experiment(pc.SimulationConfig(seed=seeds[index % len(seeds)]), leadfield)

    durations = timed_loop(args.seconds, op)
    threads = effective_blas_threads()
    return {
        "diag.default_threads.experiment_ms_p50": statistics.median(durations) * 1e3,
        "diag.default_threads.experiment_ms_p95": nearest_rank(durations, 0.95) * 1e3,
        "diag.default_threads.experiment_ms_max": max(durations) * 1e3,
        "diag.default_threads.blas_threads": float(threads or 0),
    }, {}


# ---------------------------------------------------------------------------
# cli_pipeline: the README's seven commands, one subprocess each


def run_command(argv, cwd, log, deadline) -> tuple[int, float, float]:
    """Run one command to completion; returns (exit code, wall s, peak RSS MB)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError(" ".join(argv))
    with open(log, "ab") as out:
        began = time.perf_counter()
        process = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=out)
        # os.kill, not process.kill: the latter polls and could reap the
        # child before wait4 collects its resource usage.
        killer = threading.Timer(remaining, os.kill, (process.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - began
    process.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() >= deadline:
        raise TimeoutError(" ".join(argv))
    return process.returncode, wall, usage.ru_maxrss / 1024.0


def pipeline_commands(grid: float) -> list[list[str]]:
    return [
        ["leadfield", "--builtin-1020", "--grid", repr(grid), "--out", "lf.pcf"],
        ["simulate", "--config", "../config.txt", "--leadfield", "lf.pcf", "--out", "sim"],
        ["xspec", "--epochs", "sim/epochs.csv", "--rate", "64", "--band", "8:12",
         "--out", "alpha.pcf"],
        ["connect", "--leadfield", "lf.pcf", "--xspec", "alpha.pcf", "--method",
         "partial", "--measure", "lagged", "--out", "maps_partial"],
        ["connect", "--leadfield", "lf.pcf", "--xspec", "alpha.pcf", "--method",
         "classical", "--measure", "lagged", "--out", "maps_classical"],
        ["compare", "--maps", "maps_partial", "maps_classical", "--truth",
         "sim/truth.csv", "--out", "scores.csv"],
        ["render", "--map", "maps_partial/composite.csv", "--out", "composite.ppm"],
    ]


def read_scores(path: Path) -> dict[str, float]:
    with open(path, newline="") as handle:
        return {row["method"]: float(row["localization_error"]) for row in csv.DictReader(handle)}


def cli_pipeline(args, size, tracer, outcome, workdir: Path, deadline: float):
    grid = size["cli_grid"]
    config = pc.SimulationConfig(seed=derived_seeds(args.seed, 1)[0])

    def build():
        pc.write_config(workdir / "config.txt", config)
        return pc.synth_leadfield(pc.builtin_1020_electrodes(), pc.spherical_grid(grid))

    setup_s, leadfield = median_setup(build)
    reference = pc.run_experiment(config, leadfield)
    expected = {"partial": reference.partial_error, "classical": reference.classical_error}
    commands = pipeline_commands(grid)
    untraced_stages: list[dict] = []  # per pipeline: stage -> (wall s, peak RSS MB)
    traces: list[dict] = []
    hits: list[bool] = []

    def op(index):
        # A traced pipeline runs each command through tracer.py, which calls
        # pcfield.cli.main(argv) in a fresh process and writes its spans.
        traced = tracer.active
        run_dir = workdir / f"pipeline-{index}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir()
        stages = {}
        for stage, command in zip(CLI_STAGES, commands):
            spans = run_dir / f"{stage}.trace.json"
            if traced:
                argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans)]
            else:
                argv = [sys.executable, "-m", "pcfield.cli"]
            stages[stage] = run_command(
                argv + command, run_dir, workdir / "commands.log", deadline
            )
        return run_dir, stages, traced

    def verify(index, output):
        run_dir, stages, traced = output
        for stage, (code, wall, rss) in stages.items():
            outcome.check(f"{stage}_exit_0", code == 0, f"exit {code}")
            spans = run_dir / f"{stage}.trace.json"
            if traced and spans.is_file():
                traces.append({**json.loads(spans.read_text()), "wall": wall})
        if not traced:
            untraced_stages.append({stage: (wall, rss) for stage, (_, wall, rss) in stages.items()})
        scores_path = run_dir / "scores.csv"
        ok = scores_path.is_file()
        detail = "scores.csv missing"
        if ok:
            scores = read_scores(scores_path)
            ok = set(scores) == set(expected) and all(
                math.isclose(scores[m], expected[m], rel_tol=SCORE_RTOL, abs_tol=SCORE_RTOL)
                for m in expected
            )
            detail = f"scores {scores}, in-process {expected}"
            if ok:
                hits.append(scores["partial"] <= HIT_SPACINGS)
        outcome.check("scores_match_in_process", ok, detail)
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        untraced, traced = traced_loop(tracer, args.seconds, op, verify)
        metrics = cli_trace_metrics(traces, len(traced))
        metrics.update(overhead_metrics(untraced, traced))
        for stage in CLI_STAGES:
            metrics[f"cli.{stage}_s"] = statistics.median(r[stage][0] for r in untraced_stages)
            metrics[f"cli.{stage}_peak_rss_mb"] = max(r[stage][1] for r in untraced_stages)
        metrics["simharness.partial_hit_rate"] = sum(hits) / max(len(hits), 1)
        return metrics, {}

    durations = timed_loop(args.seconds, op, verify)
    peak = max(rss for stages in untraced_stages for _, rss in stages.values())
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak, **latency_metrics(durations)}
    named = {
        "setup_s": (setup_s, "s"),
        "pipeline_s": (statistics.median(durations), "s"),
        "pipeline_peak_rss_mb": (peak, "MB"),
        "pipelines": (len(durations), "count"),
    }
    return metrics, named


def cli_trace_metrics(traces: list[dict], units: int) -> dict[str, float]:
    """Merge the per-command traces of the traced pipelines."""
    summary: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    startup = 0.0
    for trace in traces:
        for name, entry in trace["summary"].items():
            total = summary.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            for key in total:
                total[key] += entry[key]
        for key, value in trace["counters"].items():
            merge = max if key.endswith("_peak_bytes") else (lambda a, b: a + b)
            counters[key] = merge(counters.get(key, 0.0), value)
        # interpreter start-up and imports: process wall outside cli.main
        startup += trace["wall"] - trace["summary"].get("cli.main", {"total_s": 0.0})["total_s"]
    metrics = layer_metrics(summary, counters, units, spectra_estimated(summary))
    metrics["cli.startup_s"] = startup / units
    return metrics


# ---------------------------------------------------------------------------
# dense_montage: 128 electrodes, 28k voxels, two bands on one lead field


def golden_spiral_cap(count: int) -> "pc.ElectrodeArray":
    """``count`` electrodes spread evenly over the unit sphere above z = -0.3."""
    index = np.arange(count) + 0.5
    z = 1.0 - index * (1.3 / count)
    radius = np.sqrt(1.0 - z * z)
    azimuth = index * math.pi * (3.0 - math.sqrt(5.0))
    positions = np.column_stack([radius * np.cos(azimuth), radius * np.sin(azimuth), z])
    labels = tuple(f"E{k + 1:03d}" for k in range(count))
    return pc.ElectrodeArray(labels=labels, positions=positions)


def dense_flops(leadfield, recording, seeds) -> dict[str, tuple[float, float]]:
    """Computed (flop, bytes) per dense pass, from array shapes alone.

    Counts the arithmetic as the operations are written: a complex
    multiply-add is 8 flops, a real-by-complex one 4, a length-N FFT
    5 N log2 N. Bytes count each operand read once and each result written
    once (float64 8 bytes, complex128 16 bytes). Eigendecompositions and
    elementwise work are left out.
    """
    n_v, n_e = leadfield.n_voxels, leadfield.n_electrodes
    epochs, samples = recording.n_epochs, recording.n_samples
    gain_bytes, factor_bytes, square_bytes = 8.0 * n_v * n_e, 16.0 * n_v * n_e, 16.0 * n_e**2
    totals = {name: [0.0, 0.0] for name in ("cross_spectrum", "partial_field",
                                             "classical_field", "seed_rows")}
    for lo, hi in DENSE_BANDS:
        bins = len(pc.band_bins(samples, recording.rate, lo, hi))
        totals["cross_spectrum"][0] += (
            epochs * n_e * 5.0 * samples * math.log2(samples) + 8.0 * epochs * bins * n_e**2
        )
        totals["cross_spectrum"][1] += 8.0 * epochs * samples * n_e + square_bytes
        # partial: inverse square root of S, then K' times it
        totals["partial_field"][0] += 8.0 * n_e**3 + 4.0 * n_v * n_e**2
        totals["partial_field"][1] += gain_bytes + square_bytes + factor_bytes
        # classical: inverse T times the square root of S
        totals["classical_field"][0] += 4.0 * n_v * n_e**2
        totals["classical_field"][1] += gain_bytes + square_bytes + factor_bytes
        rows = 2 * len(seeds)  # one row per seed per method
        totals["seed_rows"][0] += rows * 8.0 * n_v * n_e
        totals["seed_rows"][1] += rows * (factor_bytes + 16.0 * n_v)
    return {name: (flop, byte) for name, (flop, byte) in totals.items()}


def dense_montage(args, size, tracer, outcome):
    sim_seed, choice_seed = derived_seeds(args.seed, 2)

    def build():
        electrodes = golden_spiral_cap(size["dense_electrodes"])
        leadfield = pc.synth_leadfield(electrodes, pc.spherical_grid(size["dense_grid"]))
        seeds = pc.electrode_seed_voxels(leadfield)
        first, second = np.random.default_rng(choice_seed).choice(
            len(seeds), size=2, replace=False
        )
        config = pc.SimulationConfig(
            n_epochs=size["dense_epochs"], n_samples=DENSE_SAMPLES, rate=DENSE_RATE,
            seed=sim_seed, source_voxels=(seeds[first], seeds[second]),
        )
        recording, truth = pc.simulate_eeg(config, leadfield)
        return leadfield, seeds, recording, truth

    setup_s, (leadfield, seeds, recording, truth) = median_setup(build, budget_s=0.0)
    pair_rng = np.random.default_rng(sim_seed)
    checked_seeds = pair_rng.choice(len(seeds), size=2, replace=False)
    band_times: list[float] = []
    hits: list[bool] = []

    @outcome.guarded("dense_pass")
    def op(index):
        inverse = pc.min_norm_inverse(leadfield)
        results = []
        for lo, hi in DENSE_BANDS:
            began = time.perf_counter()
            spectrum = pc.band_cross_spectrum(recording, lo, hi)
            partial = pc.partial_field(leadfield, spectrum)
            classical = pc.classical_field(inverse, spectrum)
            partial_maps = [pc.seeded_map(partial, s, "partial_lagged") for s in seeds]
            classical_maps = [pc.seeded_map(classical, s, "classical_lagged") for s in seeds]
            composites = (pc.max_over_seeds(partial_maps), pc.max_over_seeds(classical_maps))
            band_times.append(time.perf_counter() - began)
            sampled_maps = [partial_maps[i] for i in checked_seeds]
            del partial_maps, classical_maps
            results.append((spectrum, partial, sampled_maps, composites))
        return results

    def verify(index, results):
        for spectrum, partial, sampled_maps, (partial_composite, _) in results:
            norms = np.linalg.norm(partial.W, axis=1)
            worst = float(np.max(np.abs(norms - 1.0)))
            outcome.check("factor_rows_unit_norm", worst <= UNIT_NORM_TOL, f"worst {worst:.3e}")
            n_v = partial.n_voxels
            for k, l in pair_rng.integers(0, n_v, size=(size["pairwise_samples"], 2)):
                reference = pc.pairwise_partial(leadfield, spectrum, int(k), int(l))
                entry = complex(np.vdot(partial.W[l], partial.W[k]))
                gap = abs(entry - reference)
                outcome.check(
                    "factor_matches_pairwise_partial", gap <= PAIRWISE_RTOL,
                    f"pair ({k}, {l}): |W W* - pairwise| = {gap:.3e}",
                )
            for seeded in sampled_maps:
                for voxel in pair_rng.integers(0, n_v, size=4):
                    if voxel == seeded.seed:
                        continue
                    reference = pc.lagged_measure(
                        pc.pairwise_partial(leadfield, spectrum, int(voxel), seeded.seed)
                    )
                    gap = abs(seeded.values[voxel] - reference)
                    outcome.check(
                        "seed_map_matches_pairwise_partial", gap <= MAP_ATOL,
                        f"seed {seeded.seed}, voxel {voxel}: gap {gap:.3e}",
                    )
            error = pc.localization_error(partial_composite, truth, leadfield.voxels)
            hits.append(error <= HIT_SPACINGS)

    def band_s_p50():
        return statistics.median(band_times) if band_times else 0.0  # 0: every pass failed

    if args.trace:
        untraced, traced = traced_loop(tracer, args.seconds, op, verify)
        units = len(traced)
        summary = tracer.summary()
        metrics = layer_metrics(summary, tracer.counters, units, spectra_estimated(summary))
        metrics.update(overhead_metrics(untraced, traced))
        metrics["simharness.partial_hit_rate"] = sum(hits) / max(len(hits), 1)
        metrics["dense.band_s_p50"] = band_s_p50()
        spans = {
            "cross_spectrum": "spectra.band_cross_spectrum_s",
            "partial_field": "confield.partial_field_s",
            "classical_field": "confield.classical_field_s",
            "seed_rows": "confield.seeded_map_s",
        }
        for name, (flop, byte) in dense_flops(leadfield, recording, seeds).items():
            metrics[f"computed.{name}.gflop"] = flop / 1e9
            metrics[f"computed.{name}.mbyte"] = byte / 1e6
            seconds = metrics.get(spans[name], 0.0)
            metrics[f"computed.{name}.gflop_per_s"] = flop / 1e9 / seconds if seconds else 0.0
        return metrics, {}

    durations = timed_loop(args.seconds, op, verify)
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(), **latency_metrics(durations)}
    named = {
        "setup_s": (setup_s, "s"),
        "dense_s": (statistics.median(durations), "s"),
        "band_s_p50": (band_s_p50(), "s"),
        "dense_peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        "passes": (len(durations), "count"),
    }
    return metrics, named


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload", required=True,
        choices=("ref_study", "cli_pipeline", "dense_montage", "default_threads"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds until child commands are killed")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.budget
    size = SIZES[args.size]
    outcome = Outcome()
    env = environment()
    requested = env["threads_requested"]["OPENBLAS_NUM_THREADS"]
    if args.workload != "default_threads" and env["blas_threads_effective"] is not None:
        outcome.check(
            "blas_threads_pinned",
            str(env["blas_threads_effective"]) == requested,
            f"requested {requested}, effective {env['blas_threads_effective']}",
        )
    tracer = Tracer()
    if args.trace:
        instrument(tracer)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if args.workload == "ref_study":
        metrics, named = ref_study(args, size, tracer, outcome)
    elif args.workload == "cli_pipeline":
        metrics, named = cli_pipeline(args, size, tracer, outcome, workdir, deadline)
    elif args.workload == "dense_montage":
        metrics, named = dense_montage(args, size, tracer, outcome)
    else:
        metrics, named = default_threads_diagnostic(args, size)

    print(json.dumps({
        "workload": args.workload,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "errors": outcome.errors,
        "metrics": metrics,
        "named": named,
        "env": env,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
