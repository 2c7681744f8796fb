"""pcfield benchmark: three workloads, output checks, metrics by name.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload ref_study --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Each workload runs in a fresh ``worker.py`` process whose environment pins
OpenMP, OpenBLAS and MKL to one thread before numpy loads, with ``src`` on
``PYTHONPATH``. With ``--trace 0`` the last line of standard output is one
JSON object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics, and ``ref_study`` also runs an ungated diagnostic with
BLAS threading left at its default. Earlier lines give the environment,
the output checks, and the workload's metrics under the names used in
``perfbench/README.md``.

Exit status is 0 whenever a result line is printed (its ``correct`` field
says whether every output check passed) and nonzero when no result could
be produced, for example outside a pcfield checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Each workload, diagnostic included, must finish within this many seconds.
TIME_LIMIT_S = 175.0

WORKLOADS = {
    "ref_study": (
        "19 electrodes x 847 voxels, run_experiment over hundreds of seeds: tiny "
        "matrices, many calls, so Python and small-BLAS dispatch decide the time; no file I/O"
    ),
    "cli_pipeline": (
        "the README's seven CLI commands as subprocesses at --grid 0.07 (7497 voxels): "
        "lead-field file handling, CSV I/O and start-up dominate; reads and writes every format"
    ),
    "dense_montage": (
        "128 electrodes x 28257 voxels, 400 x 256-sample epochs, two bands on one lead "
        "field and inverse: GEMM- and memory-bound, no file I/O"
    ),
}

#: (name, unit, better, bound); every workload reports each of these.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p95", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: The README's seven CLI commands, in pipeline order.
CLI_STAGES = ("leadfield", "simulate", "xspec", "connect_partial", "connect_classical",
              "compare", "render")

_ALL = tuple(WORKLOADS)
_KERNELS = ("cross_spectrum", "partial_field", "classical_field", "seed_rows")

#: (name, unit, better, workloads that must report it); others report 0.
PER_LAYER = (
    ("forward.synth_leadfield_s", "s", "lower", ("cli_pipeline",)),
    ("forward.save_leadfield_s", "s", "lower", ("cli_pipeline",)),
    ("forward.load_leadfield_s", "s", "lower", ("cli_pipeline",)),
    ("forward.load_leadfield.calls", "count", "lower", ("cli_pipeline",)),
    ("forward.min_nn_distance_s", "s", "lower", ("cli_pipeline",)),
    ("forward.min_nn_distance.calls", "count", "lower", ("cli_pipeline",)),
    ("forward.read_voxels_csv_s", "s", "lower", ("cli_pipeline",)),
    ("forward.read_pcf1_s", "s", "lower", ("cli_pipeline",)),
    ("forward.write_pcf1_s", "s", "lower", ("cli_pipeline",)),
    ("forward.bytes_written", "byte", "lower", ("cli_pipeline",)),
    ("forward.bytes_read", "byte", "lower", ("cli_pipeline",)),
    ("forward.min_norm_inverse_s", "s", "lower", _ALL),
    ("spectra.band_cross_spectrum_s", "s", "lower", _ALL),
    ("spectra.band_cross_spectrum_peak_mb", "MB", "lower", _ALL),
    ("spectra.read_epochs_csv_s", "s", "lower", ("cli_pipeline",)),
    ("spectra.write_epochs_csv_s", "s", "lower", ("cli_pipeline",)),
    ("matcore.hermitian_eig_s", "s", "lower", _ALL),
    ("matcore.hermitian_eig_calls", "count", "lower", _ALL),
    ("matcore.eigendecompositions_per_spectrum", "count", "lower", _ALL),
    ("confield.partial_field_s", "s", "lower", _ALL),
    ("confield.classical_field_s", "s", "lower", _ALL),
    ("confield.seeded_map_s", "s", "lower", _ALL),
    ("confield.seeded_map.calls", "count", "lower", _ALL),
    ("confield.max_over_seeds_s", "s", "lower", _ALL),
    ("confield.write_map_csv_s", "s", "lower", ("cli_pipeline",)),
    ("confield.read_map_csv_s", "s", "lower", ("cli_pipeline",)),
    ("confield.save_factor_s", "s", "lower", ("cli_pipeline",)),
    ("simharness.simulate_eeg_s", "s", "lower", ("ref_study", "cli_pipeline")),
    ("simharness.localization_error_s", "s", "lower", ("ref_study",)),
    ("simharness.run_experiment_s", "s", "lower", ("ref_study",)),
    ("simharness.partial_hit_rate", "ratio", "higher", _ALL),
    *((f"cli.{stage}_s", "s", "lower", ("cli_pipeline",)) for stage in CLI_STAGES),
    *((f"cli.{stage}_peak_rss_mb", "MB", "lower", ("cli_pipeline",)) for stage in CLI_STAGES),
    ("cli.startup_s", "s", "lower", ("cli_pipeline",)),
    ("dense.band_s_p50", "s", "lower", ("dense_montage",)),
    *((f"computed.{kernel}.gflop", "GFLOP", "lower", ("dense_montage",)) for kernel in _KERNELS),
    *((f"computed.{kernel}.mbyte", "MB", "lower", ("dense_montage",)) for kernel in _KERNELS),
    *((f"computed.{kernel}.gflop_per_s", "GFLOP/s", "higher", ("dense_montage",))
      for kernel in _KERNELS),
    ("trace.overhead_ms", "ms", "lower", _ALL),
    ("trace.overhead_ratio", "ratio", "lower", _ALL),
    ("diag.default_threads.experiment_ms_p50", "ms", "lower", ("ref_study",)),
    ("diag.default_threads.experiment_ms_p95", "ms", "lower", ("ref_study",)),
    ("diag.default_threads.experiment_ms_max", "ms", "lower", ("ref_study",)),
    ("diag.default_threads.blas_threads", "count", "lower", ("ref_study",)),
)


def child_env(pinned: bool) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PCFIELD_THREADS", None)
    for var in THREAD_VARS:
        if pinned:
            env[var] = "1"
        else:
            env.pop(var, None)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + existing if existing else "")
    return env


def run_worker(workload, args, pinned, seconds, trace, workdir, deadline) -> dict:
    budget = deadline - time.monotonic()
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(trace),
        "--size", args.size, "--budget", repr(budget - 2.0), "--workdir", str(workdir),
    ]
    process = subprocess.Popen(argv, env=child_env(pinned), cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = process.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise RuntimeError(f"{workload} worker exceeded the time limit") from None
    lines = out.decode().strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker failed with exit code {process.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, args, deadline) -> dict:
    """Run one workload (plus its diagnostic when traced); check and label."""
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    try:
        result = run_worker(workload, args, True, args.seconds, args.trace, workdir, deadline)
        if args.trace and workload == "ref_study":
            diagnostic = run_worker(
                "default_threads", args, False, max(1.0, args.seconds / 4), 0, workdir, deadline
            )
            result["metrics"].update(diagnostic["metrics"])
            result["diag_env"] = diagnostic["env"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    spec = (
        [(n, u, workload in w) for n, u, _, w in PER_LAYER] if args.trace
        else [(n, u, True) for n, u, _, _ in END_TO_END]
    )
    metrics = {}
    for name, unit, required in spec:
        value = result["metrics"].get(name)
        if value is None:
            if required:
                result["failed"] += 1
                result["attempted"] += 1
                result["errors"].append(f"metric {name} was not produced")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    result["metrics"] = metrics
    return result


def report(result) -> None:
    workload = result["workload"]
    env = result["env"]
    print(f"[{workload}] env " + json.dumps(env, sort_keys=True))
    if "diag_env" in result:
        print(f"[{workload}] default-threads env " + json.dumps(result["diag_env"], sort_keys=True))
    checks = ", ".join(f"{name} x{count}" for name, count in sorted(result["checks"].items()))
    print(f"[{workload}] checks ran: {checks}")
    print(f"[{workload}] attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_ratio {result['failed'] / max(result['attempted'], 1):.6g}")
    for error in result["errors"]:
        print(f"[{workload}] FAILED {error}")
    for name, (value, unit) in result["named"].items():
        print(f"[{workload}] {name} = {value:.6g} {unit}")
    for name, entry in result["metrics"].items():
        print(f"[{workload}] metric {name} = {entry['value']:.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small runs every workload at a toy size (smoke test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "pcfield" / "__init__.py").is_file():
        print(f"perfbench: no pcfield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for workload in names:
        try:
            results.append(run_workload(workload, args, time.monotonic() + TIME_LIMIT_S))
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        report(results[-1])

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
