"""Two-source simulation: lag-coupled dipoles, noise layers, scoring.

The generative model is the one used for the estimator comparison: a
driver ``x_t`` of IID uniform innovations and a follower
``y_t = c x_(t-1) + eps_t`` placed at two cortical voxels (under Fp1 and
O2 by default), a layer of uniform-amplitude biological noise at fixed
random voxels, and uniform sensor noise on every electrode sample.

Randomness is split into three named substreams (sources, biological
noise, sensor noise) derived from one 64-bit seed, so each layer is
independently reproducible and the whole recording is bitwise
deterministic for a given config. Within a stream, draws happen in a
canonical order: all source-x innovations, then all source-y innovations;
bio-noise locations before bio-noise amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .confield import SeededMap, connectivity_maps, write_map_csv
from .errors import DimensionError, FormatError, ValidationError
from .forward import (
    LeadField,
    electrode_seed_voxels,
    utf8_lines,
    voxel_under_electrode,
    write_all,
    write_table,
)
from .matcore import _frozen, _integer
from .spectra import EpochedRecording, band_cross_spectrum

#: Analysis band of the reference experiment, Hz.
DEFAULT_BAND = (8.0, 12.0)


def _voxel_pair(ids) -> tuple[int, int]:
    """``ids`` as exactly two integer voxel ids, or a ValidationError."""
    try:
        first, second = ids
    except (TypeError, ValueError):
        raise ValidationError(f"source_voxels needs two ids, got {ids!r}") from None
    return (_integer("source_voxels", first), _integer("source_voxels", second))


@dataclass(frozen=True)
class SimulationConfig:
    """Generative parameters; defaults reproduce the reference experiment."""

    n_epochs: int = 100
    n_samples: int = 64
    rate: float = 64.0
    source_amp: float = 0.15
    bio_noise: float = 0.05
    bio_noise_count: int = 57
    sensor_noise: float = 0.05
    ar_coefficient: float = 0.5
    seed: int = 0
    #: pair of voxel ids, or None to place sources under Fp1 and O2
    source_voxels: tuple[int, int] | None = None

    def __post_init__(self):
        for name in ("n_epochs", "n_samples", "bio_noise_count", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.n_epochs < 1:
            raise ValidationError(f"n_epochs must be at least 1, got {self.n_epochs}")
        if self.n_samples < 2:
            raise ValidationError(f"n_samples must be at least 2, got {self.n_samples}")
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise ValidationError(f"rate must be positive, got {self.rate}")
        for name in ("source_amp", "bio_noise", "sensor_noise"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValidationError(f"{name} must be nonnegative, got {value}")
        if self.bio_noise_count < 0:
            raise ValidationError("bio_noise_count must be nonnegative")
        if not np.isfinite(self.ar_coefficient):
            raise ValidationError("ar_coefficient must be finite")
        if not (0 <= self.seed < 2**64):
            raise ValidationError("seed must fit in 64 unsigned bits")
        if self.source_voxels is not None:
            pair = _voxel_pair(self.source_voxels)
            if pair[0] == pair[1] or min(pair) < 0:
                raise ValidationError(
                    f"source_voxels must be two distinct nonnegative ids, got {pair}"
                )
            object.__setattr__(self, "source_voxels", pair)


@dataclass(frozen=True)
class GroundTruth:
    """What the generator actually did, for scoring against.

    ``source_series`` is a read-only copy of the array given.
    """

    source_voxels: tuple[int, int]
    bio_voxels: tuple[int, ...]
    source_series: np.ndarray  # (n_epochs, n_samples, 2)

    def __post_init__(self):
        pair = _voxel_pair(self.source_voxels)
        if pair[0] == pair[1]:
            raise ValidationError("source voxels must be distinct")
        bio = tuple(_integer("bio_voxels", v) for v in self.bio_voxels)
        if set(bio) & set(pair):
            raise ValidationError("bio-noise voxels must exclude the source voxels")
        series = _frozen(self.source_series, np.float64)
        if series.ndim != 3 or series.shape[2] != 2:
            raise ValidationError("source series must be (n_epochs, n_samples, 2)")
        object.__setattr__(self, "source_voxels", pair)
        object.__setattr__(self, "bio_voxels", bio)
        object.__setattr__(self, "source_series", series)


def rng_streams(seed: int):
    """The three named substreams: (sources, bio noise, sensor noise)."""
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.default_rng(child) for child in children)


def gen_sources(cfg: SimulationConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-epoch driver/follower series, shape (n_epochs, n_samples, 2).

    ``x`` is pure innovation; ``y`` couples to the previous ``x`` sample
    with the configured coefficient. The ``x`` history restarts at zero on
    every epoch boundary, so epochs are IID realizations.
    """
    shape = (cfg.n_epochs, cfg.n_samples)
    x = rng.uniform(-cfg.source_amp, cfg.source_amp, size=shape)
    y = rng.uniform(-cfg.source_amp, cfg.source_amp, size=shape)
    y[:, 1:] += cfg.ar_coefficient * x[:, :-1]
    return np.stack([x, y], axis=2)


def _resolve_source_voxels(cfg: SimulationConfig, leadfield: LeadField) -> tuple[int, int]:
    if cfg.source_voxels is not None:
        n = leadfield.n_voxels
        if max(cfg.source_voxels) >= n:
            raise ValidationError(
                f"source voxels {cfg.source_voxels} out of range for {n} voxels"
            )
        return cfg.source_voxels
    labels = leadfield.electrodes.labels
    for needed in ("Fp1", "O2"):
        if needed not in labels:
            raise ValidationError(
                f"montage lacks electrode {needed!r}; set source_voxels explicitly"
            )
    pair = (
        voxel_under_electrode(leadfield, "Fp1"),
        voxel_under_electrode(leadfield, "O2"),
    )
    if pair[0] == pair[1]:
        raise ValidationError(
            "Fp1 and O2 map to the same voxel; grid too coarse, set "
            "source_voxels explicitly"
        )
    return pair


def simulate_eeg(cfg: SimulationConfig, leadfield: LeadField):
    """Synthesize a recording; returns (EpochedRecording, GroundTruth)."""
    sources = _resolve_source_voxels(cfg, leadfield)
    n_voxels = leadfield.n_voxels
    if cfg.bio_noise_count + 2 > n_voxels:
        raise ValidationError(
            f"grid has {n_voxels} voxels; need {cfg.bio_noise_count + 2} "
            "for sources plus bio noise"
        )
    source_rng, bio_rng, sensor_rng = rng_streams(cfg.seed)

    series = gen_sources(cfg, source_rng)

    eligible = np.setdiff1d(np.arange(n_voxels), np.array(sources))
    bio_voxels = np.sort(
        bio_rng.choice(eligible, size=cfg.bio_noise_count, replace=False)
    )
    # (signal + sensor) + bio, summed in place; each noise array is drawn
    # just before it is added and dropped after, so no two are alive at
    # once. The three streams are independent, so no draw changes.
    data = series @ leadfield.gain[:, list(sources)].T
    data += sensor_rng.uniform(
        -cfg.sensor_noise,
        cfg.sensor_noise,
        size=(cfg.n_epochs, cfg.n_samples, leadfield.n_electrodes),
    )
    if cfg.bio_noise_count:
        data += bio_rng.uniform(
            -cfg.bio_noise,
            cfg.bio_noise,
            size=(cfg.n_epochs, cfg.n_samples, cfg.bio_noise_count),
        ) @ leadfield.gain[:, bio_voxels].T

    recording = EpochedRecording(
        data=data, rate=cfg.rate, labels=leadfield.electrodes.labels, _fresh=True
    )
    truth = GroundTruth(
        source_voxels=sources,
        bio_voxels=tuple(bio_voxels),
        source_series=series,
    )
    return recording, truth


def peak_localization_error(
    values: np.ndarray, positions: np.ndarray, sources: np.ndarray, spacing: float
) -> float:
    """Worst-case distance from source positions to a map's two peaks.

    Takes the top-2 entries of ``values`` (ties broken by voxel order),
    measures each source position's Euclidean distance to the nearest of
    the two peak ``positions``, and returns the larger in units of
    ``spacing``. 0 means every source was hit exactly. Inputs that are not
    nonempty ``values`` (n,), ``positions`` (n, 3) and ``sources`` (k, 3)
    are a DimensionError. A non-finite input or a spacing that is not
    positive is a ValidationError, since a NaN distance would otherwise
    score as a perfect hit.
    """
    values, positions, sources = map(np.asarray, (values, positions, sources))
    for name, array, shape in (
        ("values", values, (values.size,)),
        ("positions", positions, (values.size, 3)),
        ("sources", sources, (sources.size // 3, 3)),
    ):
        if array.size == 0 or array.shape != shape:
            raise DimensionError(f"{name} must be nonempty {shape}, got {array.shape}")
        if not np.all(np.isfinite(array)):
            raise ValidationError(f"{name} contain non-finite entries")
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValidationError(f"spacing must be positive and finite, got {spacing}")
    order = np.argsort(-values, kind="stable")
    peaks = positions[order[:2]]
    worst = 0.0
    for position in sources:
        nearest = float(np.min(np.linalg.norm(peaks - position, axis=1)))
        worst = max(worst, nearest)
    return worst / spacing


def localization_error(
    composite: SeededMap, truth: GroundTruth, voxels
) -> float:
    """:func:`peak_localization_error` of a composite against the true sources."""
    if len(voxels) != composite.n_voxels:
        raise ValidationError(
            f"map covers {composite.n_voxels} voxels, grid has {len(voxels)}"
        )
    return peak_localization_error(
        composite.values,
        voxels.positions,
        voxels.positions[list(truth.source_voxels)],
        voxels.spacing,
    )


@dataclass(frozen=True)
class ExperimentReport:
    """Everything the reference experiment produces for one seed."""

    config: SimulationConfig
    truth: GroundTruth
    band: tuple[float, float]
    seeds: tuple[int, ...]
    classical_maps: tuple[SeededMap, ...]
    partial_maps: tuple[SeededMap, ...]
    classical_composite: SeededMap
    partial_composite: SeededMap
    classical_error: float
    partial_error: float
    snr: float
    effective_rank: int


def run_experiment(
    cfg: SimulationConfig,
    leadfield: LeadField,
    band: tuple[float, float] = DEFAULT_BAND,
) -> ExperimentReport:
    """Simulate, estimate both lagged connectivity families, and score them.

    Seeds are the distinct voxels under the montage's electrodes; composites
    take the per-voxel maximum over the seeded maps. The classical family
    uses the minimum-norm inverse; the partial family needs no inverse.
    Reported SNR is the ratio of source-signal power to total noise power
    at the sensors, computed from the ground truth.
    """
    recording, truth = simulate_eeg(cfg, leadfield)

    signal = truth.source_series @ leadfield.gain[:, list(truth.source_voxels)].T
    noise = recording.data - signal
    noise_power = float(np.sum(noise**2))
    signal_power = float(np.sum(signal**2))
    snr = signal_power / noise_power if noise_power > 0 else float("inf")

    spectrum = band_cross_spectrum(recording, band[0], band[1])
    seeds = electrode_seed_voxels(leadfield)
    _, classical_maps, classical_composite = connectivity_maps(
        leadfield, spectrum, "classical_lagged", seeds
    )
    partial, partial_maps, partial_composite = connectivity_maps(
        leadfield, spectrum, "partial_lagged", seeds
    )

    return ExperimentReport(
        config=cfg,
        truth=truth,
        band=(float(band[0]), float(band[1])),
        seeds=tuple(entry.seed for entry in partial_maps),
        classical_maps=classical_maps,
        partial_maps=partial_maps,
        classical_composite=classical_composite,
        partial_composite=partial_composite,
        classical_error=localization_error(
            classical_composite, truth, leadfield.voxels
        ),
        partial_error=localization_error(partial_composite, truth, leadfield.voxels),
        snr=snr,
        effective_rank=partial.effective_rank,
    )


# ---------------------------------------------------------------------------
# config files


def _id_pair(text: str) -> tuple[int, int]:
    """A config file's ``a,b`` voxel id pair."""
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"source_voxels needs two ids, got {text!r}")
    return (int(parts[0]), int(parts[1]))


#: Config-file keys, in field order, each mapped to the parser of its value.
_CONFIG_FIELDS = {
    field.name: _id_pair if field.name == "source_voxels" else type(field.default)
    for field in fields(SimulationConfig)
}


def parse_config(path) -> SimulationConfig:
    """Read a flat key=value config; unknown keys and bad values are errors.

    Lines starting with ``#`` and blank lines are skipped; ``source_voxels``
    takes a comma-separated id pair. A bad line's error names ``path:line``.
    """
    path = Path(path)
    values: dict[str, object] = {}
    with open(path, encoding="utf-8") as handle:
        for number, raw in enumerate(utf8_lines(handle), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, equals, text = (part.strip() for part in line.partition("="))
            if not equals:
                raise FormatError(f"{path}:{number}: expected key=value, got {raw!r}")
            if key in values:
                raise FormatError(f"{path}:{number}: duplicate key {key!r}")
            if key not in _CONFIG_FIELDS:
                raise FormatError(f"{path}:{number}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_FIELDS[key](text)
            except ValueError as exc:
                raise FormatError(f"{path}:{number}: {exc}") from exc
    try:
        return SimulationConfig(**values)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_config(path, cfg: SimulationConfig) -> None:
    """Write ``cfg`` as :func:`parse_config` reads it; an unset pair is left out."""
    lines = []
    for key in _CONFIG_FIELDS:
        value = getattr(cfg, key)
        if isinstance(value, tuple):
            lines.append(f"{key} = {value[0]},{value[1]}")
        elif value is not None:
            lines.append(f"{key} = {value!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_report(report: ExperimentReport, directory, voxels) -> None:
    """Write all maps, the composites, a summary CSV, and the config echo.

    One :func:`~pcfield.forward.write_all`, so a failed write leaves none of
    them. Deterministic byte-for-byte: identical reports give identical trees.
    """
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    writes = []
    for family, maps, composite in (
        ("classical_lagged", report.classical_maps, report.classical_composite),
        ("partial_lagged", report.partial_maps, report.partial_composite),
    ):
        for entry in [*maps, composite]:
            name = "composite" if entry is composite else f"seed_{entry.seed}"
            writes.append((write_map_csv, base / f"{family}_{name}.csv", entry, voxels))
    config = replace(report.config, source_voxels=report.truth.source_voxels)
    seed, snr, rank = config.seed, report.snr, report.effective_rank
    header = ["method", "seed", "localization_error", "snr", "effective_rank"]
    summary = [
        ["classical_lagged", seed, report.classical_error, snr, rank],
        ["partial_lagged", seed, report.partial_error, snr, rank],
    ]
    write_all([
        *writes,
        (write_table, base / "summary.csv", header, summary),
        (write_config, base / "config.txt", config),
    ])
