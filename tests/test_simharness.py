"""Simulation harness: generator, recording synthesis, scoring, reports."""

import csv
from dataclasses import fields

import numpy as np
import pytest

from pcfield import (
    DimensionError,
    FormatError,
    GroundTruth,
    SeededMap,
    SimulationConfig,
    ValidationError,
    VoxelGrid,
    band_cross_spectrum,
    builtin_1020_electrodes,
    connectivity_maps,
    electrode_seed_voxels,
    gen_sources,
    lagged_measure,
    localization_error,
    pairwise_partial,
    parse_config,
    read_map_csv,
    rng_streams,
    run_experiment,
    simulate_eeg,
    spherical_grid,
    synth_leadfield,
    voxel_under_electrode,
    write_config,
    write_report,
)
from pcfield.simharness import peak_localization_error


@pytest.fixture(scope="module")
def default_leadfield():
    return synth_leadfield(builtin_1020_electrodes(), spherical_grid())


class TestSimulationConfig:
    def test_reference_defaults(self):
        cfg = SimulationConfig()
        assert cfg.n_epochs == 100
        assert cfg.n_samples == 64
        assert cfg.rate == 64.0
        assert cfg.source_amp == 0.15
        assert cfg.bio_noise == 0.05
        assert cfg.bio_noise_count == 57
        assert cfg.sensor_noise == 0.05
        assert cfg.ar_coefficient == 0.5
        assert cfg.seed == 0
        assert cfg.source_voxels is None

    def test_validation(self):
        with pytest.raises(ValidationError):
            SimulationConfig(n_samples=1)
        with pytest.raises(ValidationError):
            SimulationConfig(source_amp=-0.1)
        with pytest.raises(ValidationError):
            SimulationConfig(seed=-1)
        with pytest.raises(ValidationError):
            SimulationConfig(source_voxels=(5, 5))


class TestGenSources:
    def test_zero_amplitude_is_silent(self):
        cfg = SimulationConfig(source_amp=0.0, n_epochs=3, n_samples=16)
        series = gen_sources(cfg, rng_streams(0)[0])
        assert np.array_equal(series, np.zeros((3, 16, 2)))

    def test_shape(self):
        cfg = SimulationConfig(n_epochs=7, n_samples=32)
        assert gen_sources(cfg, rng_streams(0)[0]).shape == (7, 32, 2)

    def test_driver_and_innovations_bounded(self):
        cfg = SimulationConfig(n_epochs=50, n_samples=64)
        series = gen_sources(cfg, rng_streams(1)[0])
        x, y = series[:, :, 0], series[:, :, 1]
        assert np.max(np.abs(x)) <= 0.15
        # subtracting the coupled term recovers the bounded innovation
        assert np.max(np.abs(y[:, 1:] - 0.5 * x[:, :-1])) <= 0.15
        assert np.max(np.abs(y[:, 0])) <= 0.15  # x history starts at zero

    def test_moments_match_uniform_law(self):
        cfg = SimulationConfig(n_epochs=1000, n_samples=100)
        series = gen_sources(cfg, rng_streams(2)[0])
        x, y = series[:, :, 0], series[:, :, 1]
        # var of U(-a, a) is a^2/3
        assert np.var(x) == pytest.approx(0.15**2 / 3.0, rel=0.05)
        lagged_cov = np.mean(y[:, 1:] * x[:, :-1])
        assert lagged_cov == pytest.approx(0.5 * 0.15**2 / 3.0, rel=0.10)

    def test_streams_are_deterministic_and_distinct(self):
        first = rng_streams(42)
        second = rng_streams(42)
        assert len(first) == 3
        draws_first = [stream.uniform(size=4) for stream in first]
        draws_second = [stream.uniform(size=4) for stream in second]
        for a, b in zip(draws_first, draws_second):
            assert np.array_equal(a, b)
        assert not np.array_equal(draws_first[0], draws_first[1])


class TestSimulateEeg:
    def test_default_shape(self, default_leadfield):
        recording, _ = simulate_eeg(SimulationConfig(), default_leadfield)
        assert recording.data.shape == (100, 64, 19)
        assert recording.rate == 64.0
        assert recording.labels == default_leadfield.electrodes.labels

    def test_zero_noise_is_pure_forward_projection(self, default_leadfield):
        cfg = SimulationConfig(bio_noise=0.0, bio_noise_count=0, sensor_noise=0.0)
        recording, truth = simulate_eeg(cfg, default_leadfield)
        gain_pair = default_leadfield.gain[:, list(truth.source_voxels)]
        assert np.array_equal(recording.data, truth.source_series @ gain_pair.T)
        assert truth.bio_voxels == ()

    def test_bitwise_deterministic(self, default_leadfield):
        cfg = SimulationConfig(seed=9)
        first, _ = simulate_eeg(cfg, default_leadfield)
        second, _ = simulate_eeg(cfg, default_leadfield)
        assert np.array_equal(first.data, second.data)

    @pytest.mark.parametrize("seed", [0, 3, 17])
    @pytest.mark.parametrize("bio_noise_count", [57, 0])
    def test_bytes_match_out_of_place_sum(self, default_leadfield, seed, bio_noise_count):
        # the recording's bytes equal (signal + sensor) + bio summed out of
        # place from all three draws, each stream drawn in its own order
        cfg = SimulationConfig(seed=seed, bio_noise_count=bio_noise_count)
        recording, truth = simulate_eeg(cfg, default_leadfield)
        source_rng, bio_rng, sensor_rng = rng_streams(seed)
        series = gen_sources(cfg, source_rng)
        eligible = np.setdiff1d(np.arange(default_leadfield.n_voxels), truth.source_voxels)
        bio_voxels = np.sort(bio_rng.choice(eligible, size=bio_noise_count, replace=False))
        shape = (cfg.n_epochs, cfg.n_samples)
        gain = default_leadfield.gain
        bio = bio_rng.uniform(-cfg.bio_noise, cfg.bio_noise, size=(*shape, bio_noise_count))
        sensor = sensor_rng.uniform(-cfg.sensor_noise, cfg.sensor_noise, size=(*shape, len(gain)))
        expected = series @ gain[:, list(truth.source_voxels)].T + sensor
        if bio_noise_count:
            expected = expected + bio @ gain[:, bio_voxels].T
        assert tuple(bio_voxels) == truth.bio_voxels
        assert recording.data.tobytes() == expected.tobytes()

    def test_seed_changes_output(self, default_leadfield):
        first, _ = simulate_eeg(SimulationConfig(seed=0), default_leadfield)
        second, _ = simulate_eeg(SimulationConfig(seed=1), default_leadfield)
        assert not np.array_equal(first.data, second.data)

    def test_default_sources_sit_under_fp1_and_o2(self, default_leadfield):
        _, truth = simulate_eeg(SimulationConfig(), default_leadfield)
        assert truth.source_voxels == (
            voxel_under_electrode(default_leadfield, "Fp1"),
            voxel_under_electrode(default_leadfield, "O2"),
        )

    def test_explicit_source_pair_respected(self, default_leadfield):
        cfg = SimulationConfig(source_voxels=(10, 20))
        _, truth = simulate_eeg(cfg, default_leadfield)
        assert truth.source_voxels == (10, 20)

    def test_bio_voxels_sorted_unique_disjoint(self, default_leadfield):
        _, truth = simulate_eeg(SimulationConfig(seed=4), default_leadfield)
        bio = np.array(truth.bio_voxels)
        assert bio.shape == (57,)
        assert np.all(np.diff(bio) > 0)
        assert not set(truth.bio_voxels) & set(truth.source_voxels)

    def test_grid_too_small_for_bio_population(self, default_leadfield):
        cfg = SimulationConfig(bio_noise_count=10**6)
        with pytest.raises(ValidationError, match="voxels"):
            simulate_eeg(cfg, default_leadfield)

    def test_ground_truth_rejects_overlap(self):
        with pytest.raises(ValidationError):
            GroundTruth(
                source_voxels=(1, 2),
                bio_voxels=(2, 3),
                source_series=np.zeros((1, 4, 2)),
            )


class TestLocalizationError:
    @pytest.fixture()
    def line_grid(self):
        positions = np.zeros((6, 3))
        positions[:, 0] = np.arange(6) * 0.1
        return VoxelGrid(positions=positions, spacing=0.1)

    @pytest.fixture()
    def truth(self):
        return GroundTruth(
            source_voxels=(0, 3),
            bio_voxels=(),
            source_series=np.zeros((1, 2, 2)),
        )

    def test_exact_hit_scores_zero(self, line_grid, truth):
        values = np.array([0.9, 0.1, 0.1, 0.8, 0.1, 0.1])
        composite = SeededMap(seed=None, values=values, measure="partial_lagged")
        assert localization_error(composite, truth, line_grid) == 0.0

    def test_neighbor_peak_scores_one_spacing(self, line_grid, truth):
        values = np.array([0.9, 0.1, 0.1, 0.1, 0.8, 0.1])  # peak slid from 3 to 4
        composite = SeededMap(seed=None, values=values, measure="partial_lagged")
        assert localization_error(composite, truth, line_grid) == pytest.approx(1.0)

    def test_reports_worst_source(self, line_grid, truth):
        values = np.array([0.1, 0.9, 0.1, 0.1, 0.1, 0.8])  # peaks at 1 and 5
        composite = SeededMap(seed=None, values=values, measure="partial_lagged")
        # source 0 is 1 spacing from peak 1; source 3 is 2 spacings from peak 5
        assert localization_error(composite, truth, line_grid) == pytest.approx(2.0)

    @pytest.mark.parametrize("defect", ["values", "positions", "sources", "spacing"])
    def test_non_finite_input_rejected(self, line_grid, defect):
        inputs = {
            "values": np.array([0.9, 0.1, 0.1, 0.8, 0.1, 0.1]),
            "positions": line_grid.positions.copy(),
            "sources": line_grid.positions[[0, 3]],
            "spacing": line_grid.spacing,
        }
        if defect == "spacing":
            inputs["spacing"] = 0.0
        else:
            inputs[defect][-1] = np.nan
        with pytest.raises(ValidationError):
            peak_localization_error(**inputs)

    @pytest.mark.parametrize(
        "defect", ["short_values", "flat_positions", "no_sources", "planar_sources"]
    )
    def test_mismatched_shapes_rejected(self, line_grid, defect):
        values = np.array([0.9, 0.1, 0.1, 0.8, 0.1, 0.1])
        positions = line_grid.positions
        sources = positions[[0, 3]]
        if defect == "short_values":
            values = values[:3]
        elif defect == "flat_positions":
            positions = positions.ravel()
        elif defect == "no_sources":
            sources = sources[:0]
        else:
            sources = sources[:, :2]
        with pytest.raises(DimensionError):
            peak_localization_error(values, positions, sources, line_grid.spacing)

    def test_grid_size_mismatch(self, truth):
        grid = VoxelGrid(positions=np.zeros((2, 3)) + np.arange(2)[:, None], spacing=1.0)
        composite = SeededMap(
            seed=None, values=np.zeros(3), measure="partial_lagged"
        )
        with pytest.raises(ValidationError):
            localization_error(composite, truth, grid)


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        cfg = SimulationConfig(seed=7, n_epochs=25, source_voxels=(3, 11))
        path = tmp_path / "config.txt"
        write_config(path, cfg)
        assert parse_config(path) == cfg

    def test_round_trip_without_source_pair(self, tmp_path):
        cfg = SimulationConfig(sensor_noise=0.125)
        path = tmp_path / "config.txt"
        write_config(path, cfg)
        assert parse_config(path) == cfg

    def test_every_field_set_round_trips(self, tmp_path):
        cfg = SimulationConfig(
            n_epochs=7,
            n_samples=32,
            rate=128.5,
            source_amp=0.25,
            bio_noise=0.01,
            bio_noise_count=3,
            sensor_noise=0.125,
            ar_coefficient=-0.75,
            seed=2**63 + 1,
            source_voxels=(4, 9),
        )
        assert all(
            getattr(cfg, field.name) != field.default for field in fields(SimulationConfig)
        )
        path = tmp_path / "config.txt"
        write_config(path, cfg)
        assert path.read_text() == (
            "n_epochs = 7\n"
            "n_samples = 32\n"
            "rate = 128.5\n"
            "source_amp = 0.25\n"
            "bio_noise = 0.01\n"
            "bio_noise_count = 3\n"
            "sensor_noise = 0.125\n"
            "ar_coefficient = -0.75\n"
            "seed = 9223372036854775809\n"
            "source_voxels = 4,9\n"
        )
        assert parse_config(path) == cfg

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("# comment\n\nn_epochs = 5  # inline\nseed = 3\n")
        cfg = parse_config(path)
        assert cfg.n_epochs == 5 and cfg.seed == 3

    def test_unknown_key_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n_epochs = 5\nn_trials = 9\n")
        with pytest.raises(FormatError, match=r"bad\.txt:2"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(FormatError, match="duplicate"):
            parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "value.txt"
        path.write_text("n_epochs = soon\n")
        with pytest.raises(FormatError, match=r"value\.txt:1"):
            parse_config(path)

    def test_line_without_equals_names_the_line(self, tmp_path):
        path = tmp_path / "noeq.txt"
        path.write_text("seed = 1\nn_epochs 5\n")
        with pytest.raises(FormatError, match=r"noeq\.txt:2: expected key=value"):
            parse_config(path)

    def test_refused_config_names_the_path(self, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("n_epochs = 0\n")
        with pytest.raises(FormatError, match=r"zero\.txt: n_epochs must be at least 1"):
            parse_config(path)

    def test_malformed_pair_rejected(self, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("source_voxels = 5\n")
        with pytest.raises(FormatError, match="two ids"):
            parse_config(path)

    def test_non_utf8_bytes_rejected(self, tmp_path):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"n_epochs = 5\n# caf\xe9\n")
        with pytest.raises(FormatError, match=r"latin\.txt: not UTF-8"):
            parse_config(path)


@pytest.fixture(scope="module")
def report(default_leadfield):
    return run_experiment(SimulationConfig(seed=0), default_leadfield)


class TestRunExperiment:
    def test_structure(self, report):
        assert len(report.classical_maps) == 19
        assert len(report.partial_maps) == 19
        assert report.classical_composite.seed is None
        assert report.partial_composite.seed is None
        assert report.band == (8.0, 12.0)
        assert report.effective_rank == 19

    def test_snr_is_finite_positive(self, report):
        assert 0.0 < report.snr < np.inf

    def test_partial_localizes_both_sources_exactly(self, report, default_leadfield):
        order = np.argsort(-report.partial_composite.values, kind="stable")
        assert set(order[:2].tolist()) == set(report.truth.source_voxels)
        assert report.partial_error == 0.0

    def test_fp1_seeded_partial_map_peaks_at_o2(self, report, default_leadfield):
        fp1 = voxel_under_electrode(default_leadfield, "Fp1")
        o2 = voxel_under_electrode(default_leadfield, "O2")
        fp1_map = report.partial_maps[report.seeds.index(fp1)]
        assert fp1_map.seed == fp1
        assert int(np.argmax(fp1_map.values)) == o2

    def test_partial_beats_classical(self, report):
        assert report.partial_error <= report.classical_error

    @pytest.mark.parametrize("family", ["partial", "classical"])
    def test_maps_are_the_shared_analysis_path(self, report, default_leadfield, family):
        recording, _ = simulate_eeg(report.config, default_leadfield)
        spectrum = band_cross_spectrum(recording, *report.band)
        seeds = electrode_seed_voxels(default_leadfield)
        _, maps, composite = connectivity_maps(
            default_leadfield, spectrum, f"{family}_lagged", seeds
        )
        reported = getattr(report, f"{family}_maps")
        assert [entry.seed for entry in reported] == [entry.seed for entry in maps]
        for entry, expected in zip(reported, maps):
            assert entry.values.tobytes() == expected.values.tobytes()
        reported_composite = getattr(report, f"{family}_composite")
        assert reported_composite.values.tobytes() == composite.values.tobytes()

    def test_coarse_grid_seeds_each_voxel_once(self):
        # at spacing 0.3 the 19 electrodes sit over 15 distinct voxels
        leadfield = synth_leadfield(builtin_1020_electrodes(), spherical_grid(0.3))
        coarse = run_experiment(SimulationConfig(seed=0), leadfield)
        distinct = list(dict.fromkeys(electrode_seed_voxels(leadfield)))
        assert len(distinct) == 15
        assert list(coarse.seeds) == distinct
        for maps in (coarse.partial_maps, coarse.classical_maps):
            assert [entry.seed for entry in maps] == distinct

    def test_write_report_tree(self, tmp_path, report, default_leadfield):
        write_report(report, tmp_path, default_leadfield.voxels)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert len(files) == 42
        assert "classical_lagged_composite.csv" in files
        assert "partial_lagged_composite.csv" in files
        assert "summary.csv" in files and "config.txt" in files

        positions, values = read_map_csv(tmp_path / "partial_lagged_composite.csv")
        assert np.array_equal(values, report.partial_composite.values)
        assert np.array_equal(positions, default_leadfield.voxels.positions)

        with open(tmp_path / "summary.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["method", "seed", "localization_error", "snr", "effective_rank"]
        assert rows[1][0] == "classical_lagged" and rows[2][0] == "partial_lagged"
        assert float(rows[2][2]) == report.partial_error

        echoed = parse_config(tmp_path / "config.txt")
        assert echoed.source_voxels == report.truth.source_voxels

    def test_failed_write_report_leaves_only_the_blocking_entry(
        self, tmp_path, report, default_leadfield
    ):
        # summary.csv is written after all 40 maps; they are removed again
        (tmp_path / "summary.csv").mkdir()
        with pytest.raises(IsADirectoryError):
            write_report(report, tmp_path, default_leadfield.voxels)
        assert [path.name for path in tmp_path.iterdir()] == ["summary.csv"]


class TestSourceSeparation:
    def test_true_pair_separates_from_inactive_pairs(self, default_leadfield):
        # thresholds pinned from a reference run at these exact settings
        cfg = SimulationConfig(n_epochs=1000, seed=0)
        recording, truth = simulate_eeg(cfg, default_leadfield)
        spectrum = band_cross_spectrum(recording, 8.0, 12.0)
        active = lagged_measure(
            pairwise_partial(default_leadfield, spectrum, *truth.source_voxels)
        )
        assert active > 0.3
        rng = np.random.default_rng(99)
        forbidden = set(truth.source_voxels) | set(truth.bio_voxels)
        eligible = [v for v in range(default_leadfield.n_voxels) if v not in forbidden]
        worst = 0.0
        for _ in range(200):
            k, l = rng.choice(eligible, size=2, replace=False)
            value = lagged_measure(
                pairwise_partial(default_leadfield, spectrum, int(k), int(l))
            )
            worst = max(worst, value)
        assert worst < 0.1

    def test_noise_free_spectrum_saturates_every_pair(self, default_leadfield):
        # with rank-2 sensor data the partial coherence of every voxel pair
        # collapses onto the same value; separation needs the noise floor
        cfg = SimulationConfig(
            n_epochs=300, bio_noise=0.0, bio_noise_count=0, sensor_noise=0.0, seed=0
        )
        recording, truth = simulate_eeg(cfg, default_leadfield)
        spectrum = band_cross_spectrum(recording, 8.0, 12.0)
        rng = np.random.default_rng(100)
        pairs = [truth.source_voxels] + [
            tuple(rng.choice(default_leadfield.n_voxels, size=2, replace=False))
            for _ in range(20)
        ]
        values = [
            lagged_measure(
                pairwise_partial(default_leadfield, spectrum, int(k), int(l))
            )
            for k, l in pairs
        ]
        assert max(values) - min(values) < 1e-3
        assert min(values) > 0.3
