"""Spectral estimation: DFT conventions, cross-spectra, bands, epoch CSV."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AWKWARD_FLOATS, csv_writer_bytes
from pcfield import (
    CrossSpectrum,
    DimensionError,
    EpochedRecording,
    FormatError,
    NotPositiveSemidefiniteError,
    ValidationError,
    as_hermitian,
    band_bins,
    band_cross_spectrum,
    cross_spectrum,
    dft_epoch,
    read_epochs_csv,
    write_epochs_csv,
)


def recording_from(data, rate=64.0, labels=None):
    return EpochedRecording(data=np.asarray(data, dtype=np.float64), rate=rate, labels=labels)


def explicit_mean(rec, bins):
    """Mean of the ``dft_epoch`` outer products over every epoch and bin."""
    outers = [
        np.outer(x, np.conj(x))
        for epoch in rec.data
        for x in (dft_epoch(epoch, b) for b in bins)
    ]
    return np.mean(outers, axis=0)


def relative_gap(actual, expected):
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))


def coherence_from(matrix, k=0, l=1):
    values = np.asarray(matrix)
    return values[k, l] / np.sqrt(np.real(values[k, k]) * np.real(values[l, l]))


class TestEpochedRecording:
    def test_shape_properties(self):
        rec = recording_from(np.zeros((3, 8, 2)), rate=16.0)
        assert (rec.n_epochs, rec.n_samples, rec.n_channels) == (3, 8, 2)
        assert rec.bin_width == 2.0

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            recording_from(np.zeros((8, 2)))

    def test_rejects_single_sample(self):
        with pytest.raises(ValidationError):
            recording_from(np.zeros((1, 1, 2)))

    def test_rejects_non_finite(self):
        data = np.zeros((1, 4, 1))
        data[0, 2, 0] = np.inf
        with pytest.raises(ValidationError):
            recording_from(data)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValidationError):
            recording_from(np.zeros((1, 4, 1)), rate=0.0)


class TestDftEpoch:
    def test_constant_signal_dc_bin(self):
        epoch = np.full((8, 1), 3.0)
        assert dft_epoch(epoch, 0)[0] == 24.0 + 0.0j

    def test_cosine_probes_real_part(self):
        t = np.arange(64)
        epoch = np.cos(2.0 * np.pi * 5.0 * t / 64.0)[:, None]
        value = dft_epoch(epoch, 5)[0]
        assert abs(value - 32.0) < 1e-9

    def test_sine_probes_negative_imaginary(self):
        t = np.arange(64)
        epoch = np.sin(2.0 * np.pi * 5.0 * t / 64.0)[:, None]
        value = dft_epoch(epoch, 5)[0]
        assert abs(value - (-32.0j)) < 1e-9

    def test_bin_out_of_range(self):
        with pytest.raises(ValidationError):
            dft_epoch(np.zeros((8, 1)), 8)

    @given(
        st.integers(min_value=2, max_value=64),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_parseval_energy_identity(self, n_samples, n_channels, seed):
        rng = np.random.default_rng(seed)
        epoch = rng.standard_normal((n_samples, n_channels))
        spectrum_energy = sum(
            float(np.sum(np.abs(dft_epoch(epoch, b)) ** 2)) for b in range(n_samples)
        )
        time_energy = float(np.sum(epoch**2))
        assert spectrum_energy / n_samples == pytest.approx(time_energy, rel=1e-10)


class TestCrossSpectrum:
    def test_single_cosine_power(self):
        t = np.arange(64)
        data = np.cos(2.0 * np.pi * 5.0 * t / 64.0)[None, :, None]
        spectrum = cross_spectrum(recording_from(data), 5)
        assert spectrum.values.shape == (1, 1)
        assert abs(spectrum.values[0, 0] - 1024.0) < 1e-6

    def test_output_is_exactly_hermitian(self):
        rng = np.random.default_rng(8)
        rec = recording_from(rng.standard_normal((16, 32, 4)), rate=32.0)
        values = cross_spectrum(rec, 3).values
        assert np.array_equal(values, values.conj().T)

    def test_diag_real_nonnegative(self):
        rng = np.random.default_rng(9)
        rec = recording_from(rng.standard_normal((5, 16, 3)), rate=16.0)
        diag = np.diag(cross_spectrum(rec, 2).values)
        assert np.array_equal(np.imag(diag), np.zeros(3))
        assert np.all(np.real(diag) >= 0.0)

    def test_identical_channels_cohere_perfectly(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((7, 32, 1))
        rec = recording_from(np.concatenate([base, base], axis=2), rate=32.0)
        for b in (1, 5, 11):
            r = coherence_from(cross_spectrum(rec, b).values)
            assert abs(abs(r) - 1.0) < 1e-12

    def test_independent_channels_decohere(self):
        # coherence of independent noise concentrates near zero as 1/sqrt(N_S)
        rng = np.random.default_rng(11)
        rec = recording_from(rng.standard_normal((1000, 64, 2)))
        worst = max(
            abs(coherence_from(cross_spectrum(rec, b).values)) for b in range(1, 32)
        )
        assert worst <= 0.12

    def test_epoch_averaging_matches_manual_mean(self):
        rng = np.random.default_rng(12)
        rec = recording_from(rng.standard_normal((6, 16, 3)), rate=16.0)
        manual = np.mean(
            [np.outer(dft_epoch(rec.data[s], 4), np.conj(dft_epoch(rec.data[s], 4)))
             for s in range(6)],
            axis=0,
        )
        estimated = cross_spectrum(rec, 4).values
        assert np.allclose(estimated, manual, atol=1e-9)

    def test_metadata(self):
        rec = recording_from(np.ones((2, 64, 1)) + np.arange(64.0)[None, :, None])
        spectrum = cross_spectrum(rec, 8)
        assert spectrum.frequency == 8.0
        assert spectrum.n_epochs == 2
        assert spectrum.band is None

    def test_constructor_rejects_indefinite_matrix(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            CrossSpectrum(
                matrix=as_hermitian(np.diag([1.0, -1.0])), frequency=1.0, n_epochs=1
            )


class TestAgainstExplicitOuterProducts:
    """The estimate against the plain mean of ``dft_epoch`` outer products."""

    @pytest.fixture(scope="class")
    def rec(self):
        rng = np.random.default_rng(21)
        return recording_from(rng.standard_normal((9, 64, 5)))

    @pytest.mark.parametrize("bin", [0, 1, 10, 31, 32, 33, 50, 63])
    def test_single_bin(self, rec, bin):
        # bins above n/2 = 32 are the conjugates of their mirror bins
        estimated = cross_spectrum(rec, bin).values
        assert relative_gap(estimated, explicit_mean(rec, [bin])) <= 1e-12

    @pytest.mark.parametrize("band", [(8.0, 12.0), (1.0, 31.0), (4.0, 4.0)])
    def test_band(self, rec, band):
        estimated = band_cross_spectrum(rec, *band).values
        bins = band_bins(rec.n_samples, rec.rate, *band)
        assert relative_gap(estimated, explicit_mean(rec, bins)) <= 1e-12

    def test_odd_length_mirror_bin(self):
        rng = np.random.default_rng(22)
        rec = recording_from(rng.standard_normal((4, 15, 3)), rate=15.0)
        for bin in (7, 8, 14):
            estimated = cross_spectrum(rec, bin).values
            assert relative_gap(estimated, explicit_mean(rec, [bin])) <= 1e-12

    def test_repeat_estimates_are_bit_identical(self, rec):
        assert band_cross_spectrum(rec, 1.0, 31.0).values.tobytes() == (
            band_cross_spectrum(rec, 1.0, 31.0).values.tobytes()
        )
        assert cross_spectrum(rec, 40).values.tobytes() == (
            cross_spectrum(rec, 40).values.tobytes()
        )

    @pytest.fixture
    def rfft_calls(self, monkeypatch):
        calls = []
        original = np.fft.rfft

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        return calls

    # 4 log2(n) is 24 at n = 64 and 23.9 at n = 63: the direct DFT takes up
    # to that many bins, the rfft one bin more
    @pytest.mark.parametrize(
        "n_samples, count, direct",
        [(64, 24, True), (64, 25, False), (63, 23, True), (63, 24, False)],
    )
    def test_band_at_and_above_the_direct_limit(self, rfft_calls, n_samples, count, direct):
        rng = np.random.default_rng(24)
        rec = recording_from(rng.standard_normal((6, n_samples, 4)), rate=float(n_samples))
        bins = band_bins(rec.n_samples, rec.rate, 1.0, float(count))
        assert len(bins) == count
        estimated = band_cross_spectrum(rec, 1.0, float(count)).values
        assert relative_gap(estimated, explicit_mean(rec, bins)) <= 1e-12
        assert (len(rfft_calls) == 0) is direct

    @pytest.mark.parametrize("n_samples, bin", [(64, 55), (63, 40)])
    def test_mirrored_bin_on_the_direct_path(self, rfft_calls, n_samples, bin):
        rng = np.random.default_rng(25)
        rec = recording_from(rng.standard_normal((6, n_samples, 4)), rate=float(n_samples))
        estimated = cross_spectrum(rec, bin).values
        assert relative_gap(estimated, explicit_mean(rec, [bin])) <= 1e-12
        assert np.max(np.abs(estimated.imag)) > 0.1 * np.max(np.abs(estimated))
        assert rfft_calls == []


class TestBandBins:
    def test_alpha_band_at_reference_rate(self):
        assert list(band_bins(64, 64.0, 8.0, 12.0)) == [8, 9, 10, 11, 12]

    def test_dc_excluded_by_default(self):
        assert list(band_bins(64, 64.0, 0.0, 2.0)) == [1, 2]

    def test_nyquist_excluded_by_default(self):
        assert list(band_bins(64, 64.0, 30.0, 32.0)) == [30, 31]

    def test_odd_length_keeps_the_top_bin(self):
        # 63 samples have no Nyquist bin; the top bin is (63 - 1) // 2
        assert list(band_bins(63, 63.0, 30.0, 31.5)) == [30, 31]

    def test_empty_band_rejected(self):
        with pytest.raises(ValidationError):
            band_bins(64, 64.0, 200.0, 300.0)

    def test_inverted_band_rejected(self):
        with pytest.raises(ValidationError):
            band_bins(64, 64.0, 12.0, 8.0)


class TestBandCrossSpectrum:
    def test_single_bin_band_equals_bin_estimate(self):
        rng = np.random.default_rng(13)
        rec = recording_from(rng.standard_normal((4, 64, 3)))
        banded = band_cross_spectrum(rec, 10.0, 10.0)
        single = cross_spectrum(rec, 10)
        assert np.array_equal(banded.values, single.values)

    def test_band_metadata_and_bin_average(self):
        rng = np.random.default_rng(14)
        rec = recording_from(rng.standard_normal((4, 64, 2)))
        banded = band_cross_spectrum(rec, 8.0, 12.0)
        assert banded.band == (8.0, 12.0)
        assert banded.frequency == 10.0  # mean of bins 8..12
        manual = np.mean(
            [cross_spectrum(rec, b).values for b in range(8, 13)], axis=0
        )
        assert np.allclose(banded.values, manual, atol=1e-9)

    def test_band_average_stays_psd(self):
        rng = np.random.default_rng(15)
        rec = recording_from(rng.standard_normal((3, 64, 5)))
        values = band_cross_spectrum(rec, 8.0, 12.0).values
        eigenvalues = np.linalg.eigvalsh(values)
        assert eigenvalues[0] >= -1e-10 * max(eigenvalues[-1], 0.0)

    def test_memory_stays_far_below_outer_product_tensor(self):
        # 100 epochs x 20 bins x 64^2 complex outer products would be ~131 MB
        rng = np.random.default_rng(23)
        rec = recording_from(rng.standard_normal((100, 128, 64)), rate=128.0)
        tracemalloc.start()
        try:
            band_cross_spectrum(rec, 1.0, 20.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_a_narrow_band_holds_its_rows_not_every_bin(self):
        # the 5 bins of 8-12 Hz keep 100 x 5 rows of 32 channels (256 kB as
        # complex); an rfft of every bin would hold 129 bins, 6.6 MB
        rng = np.random.default_rng(26)
        rec = recording_from(rng.standard_normal((100, 256, 32)), rate=256.0)
        kept = rec.n_epochs * 5 * rec.n_channels * 16
        tracemalloc.start()
        try:
            band_cross_spectrum(rec, 8.0, 12.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * kept, f"peak {peak} B, kept rows {kept} B"


class TestEpochsCsv:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(16)
        rec = recording_from(
            rng.standard_normal((3, 8, 2)), rate=16.0, labels=("Fp1", "O2")
        )
        path = tmp_path / "epochs.csv"
        write_epochs_csv(path, rec)
        restored = read_epochs_csv(path, rate=16.0)
        assert np.array_equal(restored.data, rec.data)
        assert restored.labels == rec.labels

    def test_bytes_match_csv_writer(self, tmp_path):
        awkward = AWKWARD_FLOATS + tuple(-v for v in AWKWARD_FLOATS)
        data = np.random.default_rng(17).standard_normal((3, 5, 2))
        data.reshape(-1)[: len(awkward)] = awkward
        labels = ('say "hi", all', "O2")
        rec = recording_from(data, labels=labels)
        path = tmp_path / "epochs.csv"
        write_epochs_csv(path, rec)
        # oracle: the same rows, one list per row, through csv.writer
        rows = (
            [i + 1, t + 1, *sample]
            for i, epoch in enumerate(rec.data.tolist())
            for t, sample in enumerate(epoch)
        )
        written = path.read_bytes()
        assert written == csv_writer_bytes(["epoch", "t", *labels], rows)
        assert written.startswith(b'epoch,t,"say ""hi"", all",O2\r\n')

    def test_write_memory_is_one_epoch_not_the_recording(self):
        # the whole recording as Python floats is ~10 MiB; one epoch's text ~0.5 MiB
        rng = np.random.default_rng(18)
        rec = recording_from(rng.standard_normal((20, 128, 128)))
        tracemalloc.start()
        try:
            write_epochs_csv(os.devnull, rec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_malformed_cell_reports_line_number(self, tmp_path):
        rec = recording_from(np.zeros((1, 2, 1)))
        path = tmp_path / "epochs.csv"
        write_epochs_csv(path, rec)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("0.0", "zero", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"epochs\.csv:3"):
            read_epochs_csv(path, rate=64.0)

    def test_ragged_epochs_rejected(self, tmp_path):
        rec = recording_from(np.zeros((2, 3, 1)))
        path = tmp_path / "epochs.csv"
        write_epochs_csv(path, rec)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one sample row
        with pytest.raises(FormatError):
            read_epochs_csv(path, rate=64.0)

    def test_missing_sample_rejected(self, tmp_path):
        rec = recording_from(np.zeros((2, 3, 1)))
        path = tmp_path / "epochs.csv"
        write_epochs_csv(path, rec)
        lines = path.read_text().splitlines()
        kept = [line for line in lines if line.split(",")[1] != "2"]
        path.write_text("\n".join(kept) + "\n")  # t = 2 gone from both epochs
        with pytest.raises(FormatError, match=r"epochs\.csv:3"):
            read_epochs_csv(path, rate=64.0)

    def test_epoch_gap_rejected(self, tmp_path):
        rec = recording_from(np.zeros((2, 3, 1)))
        path = tmp_path / "epochs.csv"
        write_epochs_csv(path, rec)
        text = path.read_text().replace("\n2,", "\n3,")  # epochs 1 and 3
        path.write_text(text)
        with pytest.raises(FormatError, match=r"epochs\.csv:5"):
            read_epochs_csv(path, rate=64.0)
