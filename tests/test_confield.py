"""Connectivity fields: classical route, partial route, maps, diagnostics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    AWKWARD_FLOATS,
    awkward_grid,
    csv_writer_bytes,
    random_pd,
    random_psd,
)
from pcfield import (
    ClassicalField,
    ConnectivityFactor,
    CrossSpectrum,
    DimensionError,
    EpochedRecording,
    SeededMap,
    ValidationError,
    as_hermitian,
    band_cross_spectrum,
    builtin_1020_electrodes,
    classical_field,
    connectivity_maps,
    direct_partial_coherence,
    is_reflexive_ginverse,
    lagged_measure,
    load_factor,
    max_over_seeds,
    min_norm_inverse,
    moore_penrose,
    pairwise_partial,
    partial_field,
    read_map_csv,
    reflexive_residuals,
    resolution_check,
    save_factor,
    seeded_map,
    spherical_grid,
    synth_leadfield,
    weighted_inverse,
    write_map_csv,
)
from pcfield import confield

BIVARIATE = np.array([[1.0, 0.5], [0.5, 1.0]])


def random_gain(rng, n_electrodes, n_voxels):
    # shifted spectrum keeps the rows well conditioned
    gain = rng.standard_normal((n_electrodes, n_voxels))
    gain[:, :n_electrodes] += 3.0 * np.eye(n_electrodes)
    return gain


class TestClassicalField:
    def test_identity_inverse_identity_spectrum(self):
        field = classical_field(np.eye(3), np.eye(3))
        implied = field.A @ field.A.conj().T
        assert np.allclose(implied, np.eye(3), atol=1e-14)
        assert np.allclose(field.diag, np.ones(3), atol=1e-14)

    def test_identity_gain_preserves_spectrum(self):
        inverse = min_norm_inverse(np.eye(2))
        field = classical_field(inverse, BIVARIATE)
        implied = field.A @ field.A.conj().T
        assert np.allclose(implied, BIVARIATE, atol=1e-14)

    def test_bivariate_coherence_read(self):
        field = classical_field(np.eye(2), BIVARIATE)
        values = seeded_map(field, 0, "classical_coh").values
        assert values[1] == pytest.approx(0.5, abs=1e-12)

    def test_self_coherence_is_exactly_one(self):
        field = classical_field(np.eye(2), BIVARIATE)
        assert seeded_map(field, 1, "classical_coh").values[1] == 1.0

    def test_dead_voxel_flagged_and_refused(self):
        inverse = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])  # voxel 2 silent
        field = classical_field(inverse, BIVARIATE)
        assert list(field.dead_voxels) == [2]
        with pytest.raises(ValidationError, match="zero source variance"):
            seeded_map(field, 0, "classical_coh")

    def test_duplicated_gain_columns_fake_full_coherence(self):
        # identical lead-field columns are indistinguishable sources: the
        # classical estimate saturates, which the partial route suppresses
        gain = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        rng = np.random.default_rng(0)
        spectrum = random_pd(rng, 2, complex_entries=False)
        field = classical_field(min_norm_inverse(gain).matrix, spectrum)
        assert abs(seeded_map(field, 0, "classical_coh").values[1] - 1.0) < 1e-12

    def test_out_of_range_pair(self):
        field = classical_field(np.eye(2), BIVARIATE)
        with pytest.raises(ValidationError, match="out of range"):
            seeded_map(field, 5, "classical_coh")

    def test_diag_check_is_relative_to_the_largest_variance(self):
        rng = np.random.default_rng(31)
        field = classical_field(rng.standard_normal((5, 3)), random_pd(rng, 3))
        scaled = ClassicalField(inverse=1e6 * field.inverse, root=field.root)
        assert scaled.dead_voxels.size == 0

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            classical_field(np.eye(3), BIVARIATE)

    def test_direct_operands_are_checked(self):
        with pytest.raises(DimensionError, match="does not match an inverse of 2 electrodes"):
            ClassicalField(inverse=np.eye(2), root=np.ones((3, 1)))
        with pytest.raises(ValidationError, match="range factor contains non-finite"):
            ClassicalField(inverse=np.eye(2), root=[[np.nan], [1.0]])
        with pytest.raises(ValidationError, match="inverse operator contains non-finite"):
            ClassicalField(inverse=[[np.inf, 0.0]], root=np.ones((2, 1)))


class TestPartialField:
    def test_unit_diagonal_forced(self):
        rng = np.random.default_rng(1)
        gain = random_gain(rng, 4, 12)
        factor = partial_field(gain, random_pd(rng, 4))
        diag = np.sum(np.abs(factor.W) ** 2, axis=1)
        assert np.max(np.abs(diag - 1.0)) <= 1e-12

    def test_bivariate_matches_direct_inverse(self):
        factor = partial_field(np.eye(2), BIVARIATE)
        implied = factor.W @ factor.W.conj().T
        assert np.allclose(implied[0, 1], -0.5, atol=1e-12)
        expected = direct_partial_coherence(BIVARIATE).values
        assert np.allclose(implied, expected, atol=1e-12)

    def test_full_rank_reduction_matches_direct_partial(self):
        rng = np.random.default_rng(2)
        gain = random_gain(rng, 6, 6)
        spectrum = random_pd(rng, 6)
        factor = partial_field(gain, spectrum)
        implied = factor.W @ factor.W.conj().T
        source_cov = np.linalg.inv(gain) @ spectrum @ np.linalg.inv(gain).conj().T
        expected = direct_partial_coherence(source_cov).values
        assert np.max(np.abs(implied - expected)) <= 1e-8

    def test_output_independent_of_inverse_construction(self):
        rng = np.random.default_rng(3)
        gain = random_gain(rng, 5, 20)
        spectrum = random_pd(rng, 5)
        before = partial_field(gain, spectrum).W
        min_norm_inverse(gain)
        weighted_inverse(gain, rng.uniform(0.2, 5.0, 20))
        after = partial_field(gain, spectrum).W
        assert np.max(np.abs(after - before)) <= 1e-10

    def test_rank_deficient_spectrum_completes(self):
        rng = np.random.default_rng(4)
        gain = random_gain(rng, 5, 15)
        factor = partial_field(gain, random_psd(rng, 5, rank=2))
        assert factor.effective_rank == 2
        diag = np.sum(np.abs(factor.W) ** 2, axis=1)
        assert np.max(np.abs(diag - 1.0)) <= 1e-12

    def test_full_rank_spectrum_reports_full_rank(self):
        rng = np.random.default_rng(5)
        gain = random_gain(rng, 4, 9)
        assert partial_field(gain, random_pd(rng, 4)).effective_rank == 4

    def test_invisible_voxel_named(self):
        rng = np.random.default_rng(6)
        gain = random_gain(rng, 3, 8)
        gain[:, 2] = 0.0
        with pytest.raises(ValidationError, match="voxel 2"):
            partial_field(gain, random_pd(rng, 3))

    def test_magnitude_bound(self):
        rng = np.random.default_rng(7)
        gain = random_gain(rng, 6, 25)
        factor = partial_field(gain, random_pd(rng, 6))
        implied = factor.W @ factor.W.conj().T
        assert np.max(np.abs(implied)) <= 1.0 + 1e-9

    def test_non_unit_rows_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            ConnectivityFactor(
                W=np.array([[2.0, 0.0], [0.0, 1.0]]),
                method="partial",
                band=(8.0, 12.0),
                fingerprint="0" * 64,
                effective_rank=2,
            )

    def test_nan_row_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            ConnectivityFactor(
                W=np.array([[np.nan, 0.0], [0.0, 1.0]]),
                method="partial",
                band=(8.0, 12.0),
                fingerprint="0" * 64,
                effective_rank=2,
            )


def implied_field(gain, spectrum):
    factor = partial_field(gain, spectrum)
    return factor.W @ factor.W.conj().T


def conditioned_pd(rng, n, condition):
    """Complex Hermitian matrix with eigenvalues spread from 1 to 1/condition."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (basis * np.geomspace(1.0, 1.0 / condition, n)) @ basis.conj().T


def pseudo_inverse_field(inverse, spectrum):
    """``pinv(T S T')`` through :func:`moore_penrose`, scaled to unit diagonal."""
    pseudo = moore_penrose(inverse.matrix @ spectrum @ inverse.matrix.T).values
    scale = 1.0 / np.sqrt(np.real(np.diag(pseudo)))
    return pseudo * np.outer(scale, scale)


def map_values(gain, spectrum, measure, seeds):
    """:func:`connectivity_maps`' maps, then its composite, as rows of one array."""
    _, maps, composite = connectivity_maps(gain, spectrum, measure, seeds)
    return np.array([entry.values for entry in (*maps, composite)])


class TestFieldInvariances:
    @given(
        st.floats(min_value=-6.0, max_value=6.0),
        st.floats(min_value=-6.0, max_value=6.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_scale_invariant_and_voxel_equivariant(self, log_s, log_k, seed):
        rng = np.random.default_rng(seed)
        gain = random_gain(rng, 5, 16)
        spectrum = random_pd(rng, 5)
        field = implied_field(gain, spectrum)
        scaled = implied_field(10.0**log_k * gain, 10.0**log_s * spectrum)
        assert np.max(np.abs(scaled - field)) <= 1e-12
        order = rng.permutation(16)
        permuted = implied_field(gain[:, order], spectrum)
        assert np.max(np.abs(permuted - field[np.ix_(order, order)])) <= 1e-12
        channels = rng.permutation(5)
        relabelled = implied_field(gain[channels], spectrum[np.ix_(channels, channels)])
        assert np.max(np.abs(relabelled - field)) <= 1e-12

    # For the minimum-norm T, pinv(T S T') = K' S^-1 K when S is full rank:
    # a voxel-space pseudo-inverse of the inverse's source covariance, where
    # partial_field whitens S in sensor space. A singular S breaks the
    # identity (pinv(T S T') is then not K' S+ K), so none is drawn.
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=10, max_value=60),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=-6.0, max_value=6.0),
        st.floats(min_value=-6.0, max_value=6.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_min_norm_pseudo_inverse_equals_the_field(
        self, n_electrodes, n_voxels, log_condition, log_s, log_k, seed
    ):
        rng = np.random.default_rng(seed)
        gain = 10.0**log_k * random_gain(rng, n_electrodes, n_voxels)
        spectrum = 10.0**log_s * conditioned_pd(rng, n_electrodes, 10.0**log_condition)
        oracle = pseudo_inverse_field(min_norm_inverse(gain), spectrum)
        assert np.max(np.abs(oracle - implied_field(gain, spectrum))) <= 1e-10

    # T S T' of the minimum-norm T is unchanged by an electrode relabelling
    # and only scales with K and S, so the normalized classical maps are not
    # moved by either.
    @given(
        st.floats(min_value=-6.0, max_value=6.0),
        st.floats(min_value=-6.0, max_value=6.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_min_norm_classical_maps_are_scale_and_relabel_invariant(self, log_s, log_k, seed):
        rng = np.random.default_rng(seed)
        gain = random_gain(rng, 5, 16)
        spectrum = random_pd(rng, 5)
        channels = rng.permutation(5)
        for measure in ("classical_coh", "classical_lagged"):
            maps = map_values(gain, spectrum, measure, range(16))
            scaled = map_values(10.0**log_k * gain, 10.0**log_s * spectrum, measure, range(16))
            relabelled = map_values(
                gain[channels], spectrum[np.ix_(channels, channels)], measure, range(16)
            )
            assert np.max(np.abs(scaled - maps)) <= 1e-10
            assert np.max(np.abs(relabelled - maps)) <= 1e-10

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_connectivity_maps_permute_with_the_voxels(self, seed):
        rng = np.random.default_rng(seed)
        gain = random_gain(rng, 5, 16)
        spectrum = random_pd(rng, 5)
        order = rng.permutation(16)  # voxel j of the permuted grid is voxel order[j]
        seeds = rng.choice(16, size=4, replace=False)
        relabelled = np.argsort(order)[seeds]
        for measure in confield.MEASURES:
            maps = map_values(gain, spectrum, measure, seeds)
            permuted = map_values(gain[:, order], spectrum, measure, relabelled)
            assert np.max(np.abs(permuted - maps[:, order])) <= 1e-10

    def test_weighted_pseudo_inverse_depends_on_the_weights(self):
        # the pseudo-inverse route is tied to its inverse; the field is not
        rng = np.random.default_rng(0)
        gain = random_gain(rng, 8, 50)
        spectrum = conditioned_pd(rng, 8, 10.0)
        inverse = weighted_inverse(gain, rng.uniform(0.2, 5.0, 50))
        oracle = pseudo_inverse_field(inverse, spectrum)
        assert np.max(np.abs(oracle - implied_field(gain, spectrum))) > 0.1


class TestSingleEigendecomposition:
    def test_every_consumer_reuses_the_spectrum_decomposition(self, monkeypatch):
        rng = np.random.default_rng(25)
        gain = random_gain(rng, 6, 20)
        inverse = min_norm_inverse(gain)
        recording = EpochedRecording(rng.standard_normal((12, 32, 6)), rate=32.0)
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(_original.__name__)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        spectrum = band_cross_spectrum(recording, 4.0, 8.0)
        partial_field(gain, spectrum)
        classical_field(inverse, spectrum)
        for k, l in [(0, 1), (3, 17), (19, 5)]:
            pairwise_partial(gain, spectrum, k, l)
        reflexive_residuals(gain, spectrum, inverse)
        assert calls == ["eigh"]


class TestPairwisePartial:
    def test_matches_full_field_entries(self):
        rng = np.random.default_rng(8)
        gain = random_gain(rng, 6, 30)
        spectrum = random_pd(rng, 6)
        factor = partial_field(gain, spectrum)
        implied = factor.W @ factor.W.conj().T
        for k, l in [(0, 1), (3, 17), (29, 5), (12, 12)]:
            value = pairwise_partial(gain, spectrum, k, l)
            assert abs(value - implied[k, l]) <= 1e-10

    def test_value_ignores_other_voxels(self):
        rng = np.random.default_rng(9)
        gain = random_gain(rng, 5, 18)
        spectrum = random_pd(rng, 5)
        full = pairwise_partial(gain, spectrum, 2, 7)
        restricted = pairwise_partial(gain[:, [2, 7]], spectrum, 0, 1)
        assert abs(full - restricted) <= 1e-12

    def test_self_pair_is_exactly_one(self):
        rng = np.random.default_rng(10)
        gain = random_gain(rng, 4, 10)
        assert pairwise_partial(gain, random_pd(rng, 4), 3, 3) == 1.0 + 0.0j

    def test_out_of_range(self):
        rng = np.random.default_rng(11)
        gain = random_gain(rng, 4, 10)
        with pytest.raises(ValidationError):
            pairwise_partial(gain, random_pd(rng, 4), 0, 10)


class TestLaggedMeasure:
    def test_real_coherence_has_no_lag(self):
        assert lagged_measure(0.3) == 0.0

    def test_pure_imaginary(self):
        assert lagged_measure(0.5j) == pytest.approx(0.5, abs=1e-15)

    def test_mixed_hand_value(self):
        assert lagged_measure(0.5 + 0.5j) == pytest.approx(np.sqrt(0.25 / 0.75), abs=1e-12)

    def test_magnitude_above_one_rejected(self):
        with pytest.raises(ValidationError):
            lagged_measure(1.1)

    def test_instantaneous_saturation_warns_and_returns_zero(self):
        with pytest.warns(RuntimeWarning, match="saturates"):
            assert lagged_measure(1.0 + 0.0j) == 0.0

    def test_array_input_mixes_branches(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out = lagged_measure(np.array([0.3, 0.5j, 1.0]))
        assert out.shape == (3,)
        assert out[0] == 0.0 and out[2] == 0.0
        assert out[1] == pytest.approx(0.5, abs=1e-15)

    def test_clipped_to_unit_interval(self):
        values = lagged_measure(np.array([0.9999999j, 0.1 + 0.9j]))
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_reused_buffers_give_the_plain_expressions_bits(self):
        rng = np.random.default_rng(33)
        radius = rng.uniform(0.0, 1.0, 3000)
        row = radius * np.exp(1j * rng.uniform(-np.pi, np.pi, radius.size))
        # edge is the smallest real part whose square is degenerate
        edge = math.sqrt(1.0 - confield.DEGENERATE_TOL)
        while edge * edge < 1.0 - confield.DEGENERATE_TOL:
            edge = math.nextafter(edge, 2.0)
        below = math.nextafter(edge, 0.0)
        row[:12] = [
            0.0, -0.0, 1.0, -1.0, complex(1.0, 1e-7), complex(edge, 1e-9),
            complex(-edge, 0.0), complex(below, 1e-7), complex(-below, 1e-7),
            1.0 + confield.MAGNITUDE_TOL, complex(0.0, 1.0 + confield.MAGNITUDE_TOL),
            complex(0.6, 0.8),
        ]
        rng.shuffle(row)
        before = row.copy()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = lagged_measure(row)
        assert row.tobytes() == before.tobytes()  # the caller's array is untouched
        real_sq = row.real**2
        degenerate = real_sq >= 1.0 - confield.DEGENERATE_TOL
        denominator = np.where(degenerate, 1.0, 1.0 - real_sq)
        plain = np.sqrt(row.imag**2 / denominator)
        plain = np.where(degenerate, 0.0, np.minimum(plain, 1.0))
        assert values.tobytes() == plain.tobytes()
        assert np.count_nonzero(degenerate) == 6 and values.max() == 1.0
        assert [(w.category, str(w.message), w.filename) for w in caught] == [(
            RuntimeWarning,
            "instantaneous coherence saturates the lagged measure; reporting 0",
            __file__,
        )]

    @pytest.mark.parametrize(
        "scalar", [0.5 + 0.5j, np.complex128(0.5 + 0.5j), np.array(0.5 + 0.5j), 0.25]
    )
    def test_a_scalar_gives_a_float(self, scalar):
        value = lagged_measure(scalar)
        assert type(value) is float
        assert value == float(np.sqrt(np.imag(scalar) ** 2 / (1.0 - np.real(scalar) ** 2)))

    def test_the_refusal_message_is_unchanged(self):
        message = r"^coherence magnitudes must be finite and at most 1 \(largest 1\.5\)$"
        with pytest.raises(ValidationError, match=message):
            lagged_measure(np.array([0.2, -1.5j, 0.1]))


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(12)
    gain = random_gain(rng, 5, 14)
    # complex PD spectrum so lagged values are nontrivial
    spectrum = random_pd(rng, 5)
    inverse = min_norm_inverse(gain)
    return {
        "classical": classical_field(inverse, spectrum),
        "partial": partial_field(gain, spectrum),
        "gain": gain,
        "spectrum": spectrum,
        "inverse": inverse,
    }


class TestSeededMaps:
    def test_coherence_seed_entry_is_one(self, instance):
        for source, tag in [
            (instance["classical"], "classical_coh"),
            (instance["partial"], "partial_coh"),
        ]:
            mapped = seeded_map(source, 3, tag)
            assert mapped.values[3] == 1.0
            assert mapped.seed == 3 and mapped.measure == tag

    def test_lagged_seed_entry_is_zero(self, instance):
        for source, tag in [
            (instance["classical"], "classical_lagged"),
            (instance["partial"], "partial_lagged"),
        ]:
            assert seeded_map(source, 5, tag).values[5] == 0.0

    def test_symmetry_between_seed_pairs(self, instance):
        for source, prefix in [
            (instance["classical"], "classical"),
            (instance["partial"], "partial"),
        ]:
            for measure in (f"{prefix}_coh", f"{prefix}_lagged"):
                a = seeded_map(source, 2, measure)
                b = seeded_map(source, 9, measure)
                assert a.values[9] == pytest.approx(b.values[2], abs=1e-12)

    def test_values_in_unit_interval(self, instance):
        mapped = seeded_map(instance["partial"], 0, "partial_coh")
        assert np.all(mapped.values >= 0.0) and np.all(mapped.values <= 1.0)

    def test_measure_source_pairing_enforced(self, instance):
        with pytest.raises(ValidationError, match="requires"):
            seeded_map(instance["classical"], 0, "partial_coh")
        with pytest.raises(ValidationError, match="requires"):
            seeded_map(instance["partial"], 0, "classical_lagged")

    def test_unknown_measure(self, instance):
        with pytest.raises(ValidationError, match="unknown measure"):
            seeded_map(instance["partial"], 0, "granger")

    def test_seed_out_of_range(self, instance):
        with pytest.raises(ValidationError):
            seeded_map(instance["partial"], 14, "partial_coh")


class TestMaxOverSeeds:
    def test_single_map_masks_own_seed(self):
        values = np.array([1.0, 0.4, 0.7])
        single = SeededMap(seed=0, values=values, measure="partial_coh")
        composite = max_over_seeds([single])
        assert composite.seed is None
        assert np.array_equal(composite.values, [0.0, 0.4, 0.7])

    def test_two_maps_entrywise_max(self):
        a = SeededMap(seed=0, values=np.array([1.0, 0.2, 0.6]), measure="partial_coh")
        b = SeededMap(seed=1, values=np.array([0.5, 1.0, 0.1]), measure="partial_coh")
        composite = max_over_seeds([a, b])
        # seed entries are masked per map before the maximum
        assert np.array_equal(composite.values, [0.5, 0.2, 0.6])

    def test_mixed_measures_rejected(self):
        a = SeededMap(seed=0, values=np.zeros(2), measure="partial_lagged")
        b = SeededMap(seed=1, values=np.zeros(2), measure="classical_lagged")
        with pytest.raises(ValidationError, match="mixed"):
            max_over_seeds([a, b])

    def test_composites_cannot_be_recomposed(self):
        single = SeededMap(seed=0, values=np.zeros(3), measure="partial_lagged")
        composite = max_over_seeds([single])
        with pytest.raises(ValidationError):
            max_over_seeds([composite])

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            max_over_seeds([])


def operand_seed_row(instance, kind, seed):
    """The seed's normalized column of ``K' S+ K`` or ``T S T'``, from the inputs.

    Each step is spelled out here, in the order the field's kernel takes
    it: ``q = M (M* R[:, s])`` scaled by the seed's weight, then the real
    product ``[Re q; Im q] @ R`` scaled per voxel.
    """
    decomposition = CrossSpectrum(
        matrix=instance["spectrum"], frequency=np.nan, n_epochs=1
    ).decomposition
    if kind == "partial":
        operand = instance["gain"]
        mixer = decomposition.range_factor(-0.5)
        scale = 1.0 / np.linalg.norm(operand.T @ mixer, axis=1)
    else:
        operand = np.ascontiguousarray(instance["inverse"].matrix.T)
        mixer = decomposition.range_factor(0.5)
        scale = 1.0 / np.sqrt(np.sum(np.abs(operand.T @ mixer) ** 2, axis=1))
    mixed = mixer @ np.conj(operand[:, seed] @ mixer) * scale[seed]
    parts = np.stack([mixed.real, mixed.imag]) @ operand
    row = np.empty(operand.shape[1], dtype=np.complex128)
    row.real = parts[0] * scale
    row.imag = parts[1] * scale
    return row


def two_step_seed_values(row, seed, measure):
    """Seed-map values as a row helper plus a masking step computed them."""
    if measure.endswith("_coh"):
        values = np.abs(row)
        values[seed] = 1.0
    else:
        row = row.copy()
        row[seed] = 0.0
        values = lagged_measure(row)
        values[seed] = 0.0
    return np.clip(values, 0.0, 1.0)


def stacked_composite(maps):
    """The composite as a (maps x voxels) stack with -1 at each own seed."""
    stacked = np.empty((len(maps), maps[0].n_voxels))
    for index, entry in enumerate(maps):
        stacked[index] = entry.values
        stacked[index, entry.seed] = -1.0
    composite = stacked.max(axis=0)
    composite[composite < 0.0] = 0.0
    return composite


class TestSeedMapBits:
    @pytest.mark.parametrize(
        "measure", ["partial_coh", "partial_lagged", "classical_coh", "classical_lagged"]
    )
    @pytest.mark.parametrize("seed", [0, 7, 13])  # first, middle, last of 14
    def test_values_match_two_step_formulas(self, instance, measure, seed):
        kind = measure.split("_")[0]
        mapped = seeded_map(instance[kind], seed, measure)
        expected = two_step_seed_values(operand_seed_row(instance, kind, seed), seed, measure)
        assert mapped.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("measure", ["partial_lagged", "classical_coh"])
    def test_composite_matches_stacked_maximum(self, instance, measure):
        source = instance[measure.split("_")[0]]
        every_seed = [seeded_map(source, seed, measure) for seed in range(14)]
        for maps in (every_seed[:1], every_seed, every_seed[::-3]):
            composite = max_over_seeds(maps)
            assert composite.values.tobytes() == stacked_composite(maps).tobytes()

    def test_repeated_seed_reads_zero(self, instance):
        twice = [seeded_map(instance["partial"], 5, "partial_coh")] * 2
        composite = max_over_seeds(twice)
        assert composite.values[5] == 0.0
        assert composite.values.tobytes() == stacked_composite(twice).tobytes()

    def test_all_zero_map(self):
        maps = [SeededMap(seed=2, values=np.zeros(4), measure="classical_lagged")]
        composite = max_over_seeds(maps)
        assert composite.values.tobytes() == np.zeros(4).tobytes()
        assert composite.values.tobytes() == stacked_composite(maps).tobytes()


class TestConnectivityMaps:
    @pytest.fixture(scope="class")
    def inputs(self):
        rng = np.random.default_rng(12)
        return random_gain(rng, 5, 14), random_pd(rng, 5)

    @pytest.mark.parametrize(
        "measure", ["partial_coh", "partial_lagged", "classical_coh", "classical_lagged"]
    )
    def test_same_bits_as_the_steps_it_joins(self, inputs, measure):
        gain, spectrum = inputs
        seeds = [0, 7, 13]
        source, maps, composite = connectivity_maps(gain, spectrum, measure, seeds)
        if measure.startswith("partial"):
            expected = partial_field(gain, spectrum)
            assert source.W.tobytes() == expected.W.tobytes()
        else:
            expected = classical_field(min_norm_inverse(gain), spectrum)
            assert source.A.tobytes() == expected.A.tobytes()
        expected_maps = [seeded_map(expected, seed, measure) for seed in seeds]
        assert [entry.seed for entry in maps] == seeds
        for entry, reference in zip(maps, expected_maps):
            assert entry.values.tobytes() == reference.values.tobytes()
        reference = max_over_seeds(expected_maps)
        assert composite.values.tobytes() == reference.values.tobytes()

    def test_repeated_seed_mapped_once_in_first_place(self, inputs):
        gain, spectrum = inputs
        _, maps, composite = connectivity_maps(
            gain, spectrum, "partial_lagged", [7, 2, 7, 0, 2]
        )
        assert [entry.seed for entry in maps] == [7, 2, 0]
        source = partial_field(gain, spectrum)
        repeated = [seeded_map(source, s, "partial_lagged") for s in (7, 2, 7, 0, 2)]
        # a repeat never changed the composite; it only wrote the map twice
        assert composite.values.tobytes() == max_over_seeds(repeated).values.tobytes()

    def test_float_seed_refused_even_beside_its_integer(self, inputs):
        gain, spectrum = inputs
        with pytest.raises(ValidationError, match=r"seed must be an integer, got 2\.0"):
            connectivity_maps(gain, spectrum, "classical_coh", [2, 2.0])

    def test_unknown_measure_refused(self, inputs):
        gain, spectrum = inputs
        with pytest.raises(ValidationError, match="unknown measure 'partial'"):
            connectivity_maps(gain, spectrum, "partial", [0])


class TestSeededMapValidation:
    def test_slight_overshoot_clipped(self):
        mapped = SeededMap(
            seed=1,
            values=np.array([0.5, 1.0 + 5e-10, 0.2]),
            measure="classical_lagged",
        )
        assert mapped.values[1] == 1.0

    def test_large_overshoot_rejected(self):
        with pytest.raises(ValidationError):
            SeededMap(seed=0, values=np.array([1.1, 0.0]), measure="partial_coh")

    def test_coherence_tag_requires_unit_seed(self):
        with pytest.raises(ValidationError):
            SeededMap(seed=0, values=np.array([0.4, 0.2]), measure="partial_coh")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("seed", [None, 0])
    def test_non_finite_values_keep_their_message(self, bad, seed):
        values = np.array([0.1, 0.5, bad, 0.2])
        with pytest.raises(ValidationError, match=r"^map contains non-finite values$"):
            SeededMap(seed=seed, values=values, measure="partial_lagged")

    def test_the_range_message_is_unchanged(self):
        message = r"^map values outside \[0, 1\]: range \[-0\.25, 0\.5\]$"
        with pytest.raises(ValidationError, match=message):
            SeededMap(seed=None, values=np.array([0.5, -0.25, 0.0]), measure="partial_lagged")


class TestReflexiveResiduals:
    def test_min_norm_and_weighted_within_tolerance(self):
        rng = np.random.default_rng(13)
        gain = random_gain(rng, 8, 50)
        spectrum = random_pd(rng, 8)
        for inverse in (
            min_norm_inverse(gain),
            weighted_inverse(gain, rng.uniform(0.2, 5.0, 50)),
        ):
            check = reflexive_residuals(gain, spectrum, inverse)
            assert check.is_reflexive
            assert check.ginverse_residual <= 1e-8
            assert check.reflexive_residual <= 1e-8

    def test_factored_residuals_match_dense_definition(self):
        rng = np.random.default_rng(14)
        gain = random_gain(rng, 5, 12)
        spectrum = random_pd(rng, 5)
        inverse = weighted_inverse(gain, rng.uniform(0.5, 2.0, 12))
        factored = reflexive_residuals(gain, spectrum, inverse)
        source_cov = inverse.matrix @ spectrum @ inverse.matrix.conj().T
        ginverse = gain.T @ np.linalg.inv(spectrum) @ gain
        dense = is_reflexive_ginverse(source_cov, ginverse)
        assert factored.ginverse_residual == pytest.approx(
            dense.ginverse_residual, abs=1e-10
        )
        assert factored.reflexive_residual == pytest.approx(
            dense.reflexive_residual, abs=1e-10
        )

    def test_perturbed_ginverse_detected_densely(self):
        rng = np.random.default_rng(15)
        gain = random_gain(rng, 5, 12)
        spectrum = random_pd(rng, 5)
        inverse = min_norm_inverse(gain)
        source_cov = inverse.matrix @ spectrum @ inverse.matrix.conj().T
        ginverse = gain.T @ np.linalg.inv(spectrum) @ gain
        noisy = ginverse + 1e-3 * rng.standard_normal(ginverse.shape)
        check = is_reflexive_ginverse(source_cov, noisy)
        assert not check
        assert max(check.ginverse_residual, check.reflexive_residual) > 1e-4

    def test_shape_mismatch(self):
        rng = np.random.default_rng(16)
        gain = random_gain(rng, 4, 9)
        with pytest.raises(DimensionError):
            reflexive_residuals(gain, random_pd(rng, 4), np.zeros((4, 9)))


class TestResolutionCheck:
    def test_identity_source_covariance(self):
        rng = np.random.default_rng(17)
        gain = random_gain(rng, 4, 10)
        check = resolution_check(gain, np.eye(10))
        assert check.ginverse_residual <= 1e-10
        assert check.reflexive_residual <= 1e-10

    def test_random_pd_truth(self):
        rng = np.random.default_rng(18)
        gain = random_gain(rng, 6, 40)
        check = resolution_check(gain, random_pd(rng, 40, complex_entries=False))
        assert check.is_reflexive

    def test_indefinite_truth_rejected(self):
        rng = np.random.default_rng(19)
        gain = random_gain(rng, 3, 6)
        with pytest.raises(ValidationError):
            resolution_check(gain, np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0]))

    def test_large_grid_refused(self):
        rng = np.random.default_rng(20)
        gain = rng.standard_normal((3, 600))
        with pytest.raises(DimensionError):
            resolution_check(gain, np.eye(600))


class TestFactorPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(23)
        gain = random_gain(rng, 5, 16)
        spectrum = CrossSpectrum(
            matrix=as_hermitian(random_pd(rng, 5)),
            frequency=10.0,
            n_epochs=20,
            band=(8.0, 12.0),
        )
        factor = partial_field(gain, spectrum)
        path = tmp_path / "factor.pcf"
        save_factor(path, factor)
        restored = load_factor(path)
        assert np.array_equal(restored.W, factor.W)
        assert restored.method == factor.method
        assert restored.band == factor.band
        assert restored.fingerprint == factor.fingerprint
        assert restored.effective_rank == factor.effective_rank

    def test_rank_deficient_factor_is_thin_and_round_trips(self, tmp_path):
        rng = np.random.default_rng(26)
        gain = random_gain(rng, 6, 20)
        factor = partial_field(gain, random_psd(rng, 6, rank=3))
        assert factor.W.shape == (20, 3)
        path = tmp_path / "factor.pcf"
        save_factor(path, factor)
        restored = load_factor(path)
        assert np.array_equal(restored.W, factor.W)
        assert restored.effective_rank == 3

    def test_column_count_must_match_effective_rank(self, tmp_path):
        rng = np.random.default_rng(27)
        gain = random_gain(rng, 4, 8)
        factor = partial_field(gain, random_psd(rng, 4, rank=2))
        path = tmp_path / "factor.pcf"
        save_factor(path, factor)
        manifest = tmp_path / "factor.manifest.csv"
        text = manifest.read_text()
        manifest.write_text(text.replace("effective_rank,2", "effective_rank,4"))
        with pytest.raises(DimensionError, match="effective rank"):
            load_factor(path)

    def test_missing_manifest_rejected(self, tmp_path):
        rng = np.random.default_rng(24)
        gain = random_gain(rng, 4, 8)
        factor = partial_field(gain, random_pd(rng, 4))
        path = tmp_path / "factor.pcf"
        save_factor(path, factor)
        (tmp_path / "factor.manifest.csv").unlink()
        with pytest.raises((FileNotFoundError, OSError)):
            load_factor(path)

    def test_failed_manifest_write_leaves_no_factor_file(self, tmp_path):
        rng = np.random.default_rng(25)
        factor = partial_field(random_gain(rng, 4, 8), random_pd(rng, 4))
        (tmp_path / "factor.manifest.csv").mkdir()
        with pytest.raises(IsADirectoryError):
            save_factor(tmp_path / "factor.pcf", factor)
        assert not (tmp_path / "factor.pcf").exists()


class TestMapCsv:
    def test_round_trip_exact(self, tmp_path):
        grid = spherical_grid(0.4)
        values = np.linspace(0.0, 1.0, len(grid))
        mapped = SeededMap(seed=None, values=values, measure="partial_lagged")
        path = tmp_path / "map.csv"
        write_map_csv(path, mapped, grid)
        positions, restored = read_map_csv(path)
        assert np.array_equal(positions, grid.positions)
        assert np.array_equal(restored, values)

    @pytest.mark.parametrize(
        "grid", [awkward_grid(), spherical_grid(0.3)], ids=["awkward", "lattice"]
    )
    def test_bytes_match_csv_writer(self, tmp_path, grid):
        awkward = [v for v in AWKWARD_FLOATS if abs(v) <= 1.0] + [1.0]
        values = np.resize(awkward, len(grid))
        values[len(awkward):] = np.random.default_rng(5).random(len(grid) - len(awkward))
        mapped = SeededMap(seed=3, values=values, measure="partial_lagged")
        path = tmp_path / "map.csv"
        write_map_csv(path, mapped, grid)
        # oracle: the same rows, one list per row, through csv.writer
        rows = enumerate(zip(grid.positions.tolist(), mapped.values.tolist()))
        expected = csv_writer_bytes(
            ["voxel_id", "x", "y", "z", "value"],
            ([i, *xyz, value] for i, (xyz, value) in rows),
        )
        assert path.read_bytes() == expected

    def test_row_text_built_once_on_first_write(self, tmp_path):
        grid = spherical_grid(0.4)
        assert "row_text" not in vars(grid)
        mapped = SeededMap(seed=None, values=np.zeros(len(grid)), measure="partial_lagged")
        write_map_csv(tmp_path / "a.csv", mapped, grid)
        first = vars(grid)["row_text"]
        write_map_csv(tmp_path / "b.csv", mapped, grid)
        assert vars(grid)["row_text"] is first

    def test_grid_size_mismatch(self, tmp_path):
        grid = spherical_grid(0.4)
        mapped = SeededMap(seed=None, values=np.zeros(3), measure="partial_lagged")
        with pytest.raises(ValidationError):
            write_map_csv(tmp_path / "map.csv", mapped, grid)


class TestRowBlocks:
    """Per-row reductions over a voxel factor run one block of rows at a time."""

    @pytest.mark.parametrize("n_rows", [1, 1023, 1024, 1025, 3 * 1024 + 7])
    def test_block_reductions_equal_the_whole_matrix_expressions(self, n_rows):
        rng = np.random.default_rng(n_rows)
        matrix = rng.standard_normal((n_rows, 7)) + 1j * rng.standard_normal((n_rows, 7))
        whole_norms = np.linalg.norm(matrix, axis=1)
        whole_squares = np.sum(np.abs(matrix) ** 2, axis=1)
        assert confield._row_norms(matrix).tobytes() == whole_norms.tobytes()
        assert confield._squared_row_norms(matrix).tobytes() == whole_squares.tobytes()
        # numpy takes a one-row product with a vector kernel: no block is one row
        sizes = confield._by_row_blocks(matrix, lambda block: np.full(len(block), len(block)))
        assert sizes.min() > 1 or n_rows == 1
        # a classical field reduces its variances over row blocks of T R
        spectrum = random_pd(rng, 7)
        for inverse in (matrix.real.copy(), np.asfortranarray(matrix.imag)):
            field = classical_field(inverse, spectrum)
            whole = confield._real_times_complex(inverse, field.root)
            assert field.diag.tobytes() == confield._squared_row_norms(whole).tobytes()
            assert field.A.tobytes() == whole.tobytes()
            assert np.allclose(field.A, inverse @ field.root, rtol=1e-14, atol=0.0)

    def test_builds_hold_about_one_row_block_beyond_their_outputs(self):
        # 7 497 voxels of rank 19 are 7.3 row blocks: a whole-factor
        # temporary would be several blocks, the blocked reductions one
        rng = np.random.default_rng(27)
        leadfield = synth_leadfield(builtin_1020_electrodes(), spherical_grid(0.07))
        leadfield.fingerprint()  # hashed once per lead field, not per build
        inverse = min_norm_inverse(leadfield)
        spectrum = CrossSpectrum(matrix=random_pd(rng, 19), frequency=10.0, n_epochs=1)
        block = confield._ROW_BLOCK * spectrum.decomposition.rank * 16
        assert leadfield.n_voxels > 7 * confield._ROW_BLOCK
        for build in (
            lambda: partial_field(leadfield, spectrum),
            lambda: classical_field(inverse, spectrum),
        ):
            tracemalloc.start()
            try:
                built = build()
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert built.n_voxels == leadfield.n_voxels
            assert peak - retained < 2 * block, f"{peak - retained} B beyond the outputs"

    @pytest.mark.parametrize("operator", [True, False], ids=["InverseOperator", "array"])
    def test_a_classical_field_holds_its_operands_and_variances_only(self, operator):
        # 7 497 voxels of rank 19: the factor T R alone would be 7.3 row blocks
        rng = np.random.default_rng(28)
        leadfield = synth_leadfield(builtin_1020_electrodes(), spherical_grid(0.07))
        inverse = min_norm_inverse(leadfield)
        given = inverse if operator else np.array(inverse.matrix)
        spectrum = CrossSpectrum(matrix=random_pd(rng, 19), frequency=10.0, n_epochs=1)
        block = confield._ROW_BLOCK * spectrum.decomposition.rank * 16
        tracemalloc.start()
        try:
            field = classical_field(given, spectrum)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        operands = field.root.nbytes + field.diag.nbytes
        if not operator:
            operands += field.inverse.nbytes
        assert retained < operands + 2 * block, f"{retained - operands} B beyond the operands"
        assert peak - retained < 2 * block, f"{peak - retained} B beyond the field"
        assert np.shares_memory(field.inverse, inverse.matrix) == operator
