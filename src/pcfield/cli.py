"""Command-line front end.

Subcommands mirror the analysis pipeline: ``leadfield`` builds or imports
a gain matrix, ``simulate`` synthesizes the two-source recording,
``xspec`` estimates a band-averaged cross-spectrum, ``connect`` computes
seeded connectivity maps and their max composite, ``compare`` scores map
directories against the ground truth, and ``render`` draws a map as a
portable pixmap.

Exit codes: 0 success, 2 numerical or validation failure, 64 usage error,
66 missing input file (or a directory given as one), 73 an output that
cannot be created (its directory is missing or is a file, or the path is a
directory). Every command computes before it writes, and a failed write
removes the files that command wrote. All outputs are deterministic for
fixed inputs.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .confield import connectivity_maps, read_map_csv, save_factor, write_map_csv
from .errors import FormatError, PcfieldError, ValidationError
from .forward import (
    LeadField,
    builtin_1020_electrodes,
    electrode_seed_voxels,
    load_leadfield,
    min_nn_distance,
    read_electrodes_csv,
    read_manifest,
    read_pcf1,
    read_table,
    read_voxels_csv,
    save_leadfield,
    sidecar,
    spherical_grid,
    synth_leadfield,
    write_all,
    write_manifest,
    write_pcf1,
    write_table,
)
from .simharness import (
    SimulationConfig,
    parse_config,
    peak_localization_error,
    simulate_eeg,
    write_config,
)
from .spectra import (
    CrossSpectrum,
    band_bins,
    band_cross_spectrum,
    read_epochs_csv,
    write_epochs_csv,
)

_PANEL = 96
_MARGIN = 8


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code pinned to 64."""

    def error(self, message):
        self.exit(64, f"{self.prog}: error: {message}\n")


class _CannotCreate(Exception):
    """An OSError raised while writing a command's outputs (exit 73)."""


@contextmanager
def _writing_outputs():
    """Mark where a command writes, so an OSError there is not a missing input."""
    try:
        yield
    except OSError as exc:
        raise _CannotCreate(exc) from exc


def _band(text: str) -> tuple[float, float]:
    try:
        lo, _, hi = text.partition(":")
        return (float(lo), float(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"band must be lo:hi in Hz, got {text!r}"
        ) from None


def _percent(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (0.0 < value <= 100.0):
        raise argparse.ArgumentTypeError(f"percent must be in (0, 100], got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="pcfield", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pcfield {__version__}")
    commands = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )

    lead = commands.add_parser("leadfield", help="build or import a lead field")
    electrodes = lead.add_mutually_exclusive_group(required=True)
    electrodes.add_argument("--electrodes", metavar="CSV", help="electrode table label,x,y,z")
    electrodes.add_argument(
        "--builtin-1020", action="store_true", help="use the built-in 19-channel montage"
    )
    voxels = lead.add_mutually_exclusive_group(required=True)
    voxels.add_argument("--voxels", metavar="CSV", help="voxel table id,x,y,z")
    voxels.add_argument(
        "--grid", type=float, metavar="SPACING", help="build a spherical lattice"
    )
    lead.add_argument("--out", required=True, metavar="PCF", help="output lead field")
    lead.set_defaults(func=cmd_leadfield)

    sim = commands.add_parser("simulate", help="synthesize the two-source recording")
    sim.add_argument("--config", metavar="FILE", help="key=value config (defaults if omitted)")
    sim.add_argument("--leadfield", required=True, metavar="PCF")
    sim.add_argument("--out", required=True, metavar="DIR")
    sim.set_defaults(func=cmd_simulate)

    xspec = commands.add_parser("xspec", help="band-averaged cross-spectrum")
    xspec.add_argument("--epochs", required=True, metavar="CSV")
    xspec.add_argument("--rate", required=True, type=float, metavar="HZ")
    xspec.add_argument("--band", required=True, type=_band, metavar="LO:HI")
    xspec.add_argument("--out", required=True, metavar="PCF")
    xspec.set_defaults(func=cmd_xspec)

    connect = commands.add_parser("connect", help="seeded connectivity maps")
    connect.add_argument("--leadfield", required=True, metavar="PCF")
    connect.add_argument("--xspec", required=True, metavar="PCF")
    connect.add_argument("--method", required=True, choices=("classical", "partial"))
    connect.add_argument("--measure", required=True, choices=("coherence", "lagged"))
    connect.add_argument(
        "--seeds",
        default="all-1020",
        metavar="all-1020|IDS",
        help="seed voxels: all-1020 (one per electrode) or distinct comma-separated ids",
    )
    connect.add_argument("--out", required=True, metavar="DIR")
    connect.set_defaults(func=cmd_connect)

    render = commands.add_parser("render", help="draw a map as a portable pixmap")
    render.add_argument("--map", required=True, metavar="CSV")
    render.add_argument("--out", required=True, metavar="PPM")
    render.add_argument(
        "--scale-percent", type=_percent, default=95.0, metavar="PCT",
        help="clip the color ramp at this percent of the map maximum",
    )
    render.set_defaults(func=cmd_render)

    compare = commands.add_parser("compare", help="score map directories against truth")
    compare.add_argument(
        "--maps", required=True, nargs="+", metavar="DIR", help="connect output dirs"
    )
    compare.add_argument("--truth", required=True, metavar="CSV")
    compare.add_argument("--out", required=True, metavar="CSV")
    compare.set_defaults(func=cmd_compare)

    return parser


# ---------------------------------------------------------------------------
# subcommands


def cmd_leadfield(args) -> int:
    if args.builtin_1020:
        electrodes = builtin_1020_electrodes()
    else:
        electrodes = read_electrodes_csv(args.electrodes)
    if args.grid is not None:
        grid = spherical_grid(args.grid)
    else:
        grid = read_voxels_csv(args.voxels)
    leadfield = synth_leadfield(electrodes, grid)
    with _writing_outputs():
        save_leadfield(leadfield, args.out)
    rank = leadfield.n_electrodes
    print(f"lead field {rank} x {leadfield.n_voxels}: full row rank {rank}")
    print(f"wrote {args.out}")
    return 0


_TRUTH_COLUMNS = {"role": str, "voxel_id": int, "x": float, "y": float, "z": float}


def _write_truth_csv(path, truth, voxels) -> None:
    rows = [["source", v, *voxels.positions[v].tolist()] for v in truth.source_voxels]
    rows += [["bio", v, *voxels.positions[v].tolist()] for v in truth.bio_voxels]
    write_table(path, _TRUTH_COLUMNS, rows)


def _read_truth_sources(path) -> tuple[list[int], np.ndarray]:
    _, rows = read_table(path, _TRUTH_COLUMNS)
    sources = [row[1:] for row in rows if row[0] == "source"]
    if not sources:
        raise FormatError(f"{path}: no source rows")
    ids = [row[0] for row in sources]
    for voxel in ids:
        if ids.count(voxel) > 1:
            raise FormatError(f"{path}: repeated source voxel id {voxel}")
    return ids, np.array([row[1:] for row in sources])


def cmd_simulate(args) -> int:
    leadfield = load_leadfield(args.leadfield)
    if args.config is not None:
        config = parse_config(args.config)
    else:
        config = SimulationConfig()
    recording, truth = simulate_eeg(config, leadfield)
    out = Path(args.out)
    with _writing_outputs():
        out.mkdir(parents=True, exist_ok=True)
        write_all([
            (write_epochs_csv, out / "epochs.csv", recording),
            (_write_truth_csv, out / "truth.csv", truth, leadfield.voxels),
            (write_config, out / "config.txt", config),
        ])
    print(
        f"simulated {recording.n_epochs} epochs x {recording.n_samples} samples "
        f"x {recording.n_channels} channels (sources at voxels "
        f"{truth.source_voxels[0]} and {truth.source_voxels[1]})"
    )
    print(f"wrote {out / 'epochs.csv'}")
    return 0


def cmd_xspec(args) -> int:
    recording = read_epochs_csv(args.epochs, rate=args.rate)
    lo, hi = args.band
    bins = band_bins(recording.n_samples, recording.rate, lo, hi)
    spectrum = band_cross_spectrum(recording, lo, hi)
    meta = {
        "band_lo": repr(lo),
        "band_hi": repr(hi),
        "frequency": repr(spectrum.frequency),
        "rate": repr(recording.rate),
        "n_epochs": spectrum.n_epochs,
        "bins": " ".join(str(b) for b in bins),
    }
    with _writing_outputs():
        write_all([
            (write_manifest, sidecar(args.out, "meta"), meta),
            (write_pcf1, args.out, spectrum.values),
        ])
    print(
        f"averaged {len(bins)} bins ({', '.join(str(b) for b in bins)}) over "
        f"{spectrum.n_epochs} epochs; wrote {args.out}"
    )
    return 0


def _read_xspec(path) -> CrossSpectrum:
    """A cross-spectrum written by ``xspec``: PCF1 matrix plus its meta file."""
    matrix = read_pcf1(path)
    entries = read_manifest(
        sidecar(path, "meta"),
        {"band_lo": float, "band_hi": float, "frequency": float, "n_epochs": int},
    )
    return CrossSpectrum(
        matrix=matrix,
        frequency=entries["frequency"],
        n_epochs=entries["n_epochs"],
        band=(entries["band_lo"], entries["band_hi"]),
    )


def _parse_seeds(text: str, leadfield: LeadField) -> list[int]:
    """Seed ids from ``--seeds``; ``connectivity_maps`` drops repeats, checks range."""
    if text == "all-1020":
        return electrode_seed_voxels(leadfield)
    parts = [part.strip() for part in text.split(",")]
    seeds = [int(part) for part in parts if part.isdecimal()]
    if len(seeds) != len(parts) or len(set(seeds)) != len(seeds):
        raise ValidationError(
            "--seeds must be 'all-1020' or distinct comma-separated voxel ids, "
            f"got {text!r}"
        )
    return seeds


def cmd_connect(args) -> int:
    leadfield = load_leadfield(args.leadfield)
    spectrum = _read_xspec(args.xspec)
    seeds = _parse_seeds(args.seeds, leadfield)
    suffix = "coh" if args.measure == "coherence" else "lagged"
    tag = f"{args.method}_{suffix}"

    source, maps, composite = connectivity_maps(leadfield, spectrum, tag, seeds)
    if args.method == "partial":
        print(
            f"partial factor: effective rank {source.effective_rank}, no "
            "inverse operator involved"
        )
    else:
        print("classical field via the minimum-norm inverse")

    out, voxels = Path(args.out), leadfield.voxels
    seed_ids = " ".join(str(entry.seed) for entry in maps)
    manifest = dict(method=args.method, measure=args.measure, tag=tag, seeds=seed_ids)
    with _writing_outputs():
        out.mkdir(parents=True, exist_ok=True)
        write_all([
            *[(write_map_csv, out / f"seed_{m.seed}.csv", m, voxels) for m in maps],
            (write_map_csv, out / "composite.csv", composite, voxels),
            (write_manifest, out / "manifest.csv", manifest),
            # last: save_factor is all or nothing itself, so nothing fails after it
            *[(save_factor, out / "factor.pcf", source)] * (args.method == "partial"),
        ])
    print(f"wrote {len(maps)} seeded maps + composite to {out}")
    return 0


def _hot_ramp(t: np.ndarray) -> np.ndarray:
    """Black -> red -> yellow -> white, t in [0, 1]; returns uint8 RGB."""
    r = np.clip(3.0 * t, 0.0, 1.0)
    g = np.clip(3.0 * t - 1.0, 0.0, 1.0)
    b = np.clip(3.0 * t - 2.0, 0.0, 1.0)
    return (np.stack([r, g, b], axis=-1) * 255.0 + 0.5).astype(np.uint8)


def cmd_render(args) -> int:
    positions, values = read_map_csv(args.map)
    peak = float(values.max())
    ceiling = (args.scale_percent / 100.0) * peak
    if ceiling > 0.0:
        intensity = np.minimum(values / ceiling, 1.0)
    else:
        intensity = np.zeros_like(values)
    half = float(np.max(np.abs(positions)))
    if half == 0.0:
        half = 1.0
    # orthographic projections: (horizontal axis, vertical axis) per panel
    panels = ((0, 1), (1, 2), (0, 2))  # axial, sagittal, coronal
    width = 3 * _PANEL + 4 * _MARGIN
    height = _PANEL + 2 * _MARGIN
    image = np.zeros((height, width, 3), dtype=np.uint8)
    scale = (_PANEL - 1) / (2.0 * half)
    for index, (ax_h, ax_v) in enumerate(panels):
        level = np.zeros((_PANEL, _PANEL))
        cols = np.clip(
            np.round((positions[:, ax_h] + half) * scale).astype(int), 0, _PANEL - 1
        )
        rows = np.clip(
            np.round((half - positions[:, ax_v]) * scale).astype(int), 0, _PANEL - 1
        )
        np.maximum.at(level, (rows, cols), intensity)
        colored = _hot_ramp(level)
        top = _MARGIN
        left = _MARGIN + index * (_PANEL + _MARGIN)
        image[top : top + _PANEL, left : left + _PANEL] = colored
    header = f"P6\n{width} {height}\n255\n".encode()
    with _writing_outputs():
        Path(args.out).write_bytes(header + image.tobytes())
    print(f"rendered {args.map} -> {args.out} ({width}x{height})")
    return 0


def cmd_compare(args) -> int:
    truth_ids, truth_positions = _read_truth_sources(args.truth)
    rows = []
    for directory in args.maps:
        base = Path(directory)
        entries = read_manifest(base / "manifest.csv", {"method": str, "measure": str})
        positions, values = read_map_csv(base / "composite.csv")
        spacing = min_nn_distance(positions)
        # Both files are written with repr, so a source's row matches exactly.
        for voxel, xyz in zip(truth_ids, truth_positions.tolist()):
            if not 0 <= voxel < len(positions) or positions[voxel].tolist() != xyz:
                raise FormatError(f"{args.truth}: source {voxel} {xyz} not in {base}")
        error = peak_localization_error(values, positions, truth_positions, spacing)
        rows.append((entries["method"], entries["measure"], error))
    with _writing_outputs():
        write_table(args.out, ["method", "measure", "localization_error"], rows)
    for method, measure, error in rows:
        print(f"{method} {measure}: localization error {error:.3f} grid spacings")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CannotCreate as exc:
        print(f"pcfield: {exc.__cause__}", file=sys.stderr)
        return 73
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"pcfield: {exc}", file=sys.stderr)
        return 66
    except (PcfieldError, np.linalg.LinAlgError) as exc:
        print(f"pcfield: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
