"""One rule per operand: gain and inverse arrays, voxel ids, counts, coherences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gain, random_pd, random_psd
from pcfield import (
    ClassicalField,
    ConnectivityFactor,
    CrossSpectrum,
    DimensionError,
    ElectrodeArray,
    GroundTruth,
    InverseOperator,
    LeadField,
    NotPositiveSemidefiniteError,
    ReflexiveCheck,
    SeededMap,
    SimulationConfig,
    SingularMatrixError,
    ValidationError,
    VoxelGrid,
    classical_field,
    connectivity_maps,
    lagged_measure,
    min_norm_inverse,
    mp_symmetry_defect,
    pairwise_partial,
    partial_field,
    reflexive_residuals,
    resolution_check,
    resolution_matrix,
    seeded_map,
    weighted_inverse,
    write_config,
)
from pcfield.forward import _right_inverse
from pcfield.matcore import REFLEXIVE_TOL

NAN_GAIN = np.array([[math.nan, 1.0, 2.0], [0.5, 1.0, 0.2]])


def good_inverse():
    return min_norm_inverse(random_gain(np.random.default_rng(1), 2, 3))


def geometry_leadfield(gain):
    """A :class:`LeadField` of ``gain`` on two electrodes and three voxels."""
    electrodes = ElectrodeArray(labels=("Fz", "Cz"), positions=np.eye(3)[:2])
    voxels = VoxelGrid(positions=0.5 * np.eye(3), spacing=0.5)
    return LeadField(gain=gain, electrodes=electrodes, voxels=voxels)


# Every function that takes a lead field, called with a gain array.
GAIN_TAKERS = {
    "min_norm_inverse": min_norm_inverse,
    "weighted_inverse": lambda gain: weighted_inverse(gain, np.ones(3)),
    "resolution_matrix": resolution_matrix,
    "mp_symmetry_defect": lambda gain: mp_symmetry_defect(gain, good_inverse()),
    "partial_field": lambda gain: partial_field(gain, np.eye(2)),
    "pairwise_partial": lambda gain: pairwise_partial(gain, np.eye(2), 0, 1),
    "reflexive_residuals": lambda gain: reflexive_residuals(
        gain, np.eye(2), good_inverse()
    ),
    "resolution_check": lambda gain: resolution_check(gain, np.eye(3)),
    "connectivity_maps": lambda gain: connectivity_maps(
        gain, np.eye(2), "partial_coh", [0]
    ),
    "LeadField": geometry_leadfield,
}

# Every function that takes an inverse, called with an inverse array.
INVERSE_TAKERS = {
    "InverseOperator": lambda matrix: InverseOperator(matrix=matrix),
    "classical_field": lambda matrix: classical_field(matrix, np.eye(2)),
    "reflexive_residuals": lambda matrix: reflexive_residuals(
        random_gain(np.random.default_rng(1), 2, 3), np.eye(2), matrix
    ),
    "mp_symmetry_defect": lambda matrix: mp_symmetry_defect(
        random_gain(np.random.default_rng(1), 2, 3), matrix
    ),
}

def good_gain():
    """The gain :func:`good_inverse` inverts."""
    return random_gain(np.random.default_rng(1), 2, 3)


# Every function that takes a spectrum, called with a two-channel spectrum.
SPECTRUM_TAKERS = {
    "partial_field": lambda spectrum: partial_field(good_gain(), spectrum),
    "classical_field": lambda spectrum: classical_field(good_inverse(), spectrum),
    "pairwise_partial": lambda spectrum: pairwise_partial(
        good_gain(), spectrum, 0, 1
    ),
    "reflexive_residuals": lambda spectrum: reflexive_residuals(
        good_gain(), spectrum, good_inverse()
    ),
}

# Malformed two-channel spectra, each with the error every taker raises.
BAD_SPECTRA = {
    "nan": (np.array([[math.nan, 0.0], [0.0, 1.0]]), ValidationError, "non-finite"),
    "non_square": (np.ones((2, 3)), DimensionError, "square"),
    "non_hermitian": (np.array([[1.0, 1.0], [0.0, 1.0]]), ValidationError, "Hermitian"),
    "indefinite": (np.diag([1.0, -1.0]), NotPositiveSemidefiniteError, "cross-spectrum"),
    "wrong_channels_array": (np.eye(3), DimensionError, "3 channels, expected 2"),
    "wrong_channels_spectrum": (
        CrossSpectrum(matrix=np.eye(3), frequency=10.0, n_epochs=4),
        DimensionError,
        "3 channels, expected 2",
    ),
}


def result_bytes(result) -> bytes:
    """Every number a spectrum taker returns, as bytes; a factor's band left out."""
    if isinstance(result, ConnectivityFactor):
        parts = (result.W, result.effective_rank)
    elif isinstance(result, ClassicalField):
        parts = (result.A, result.diag)
    elif isinstance(result, ReflexiveCheck):
        parts = (result.ginverse_residual, result.reflexive_residual)
    else:
        parts = (result,)
    return b"".join(np.asarray(part).tobytes() for part in parts)


class TestGainRule:
    @pytest.mark.parametrize("name", sorted(GAIN_TAKERS))
    def test_nan_gain_is_validation_error(self, name):
        with pytest.raises(ValidationError, match="non-finite"):
            GAIN_TAKERS[name](NAN_GAIN)

    @pytest.mark.parametrize("name", sorted(GAIN_TAKERS))
    def test_rank_deficient_gain_is_refused(self, name):
        gain = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(SingularMatrixError, match="full row rank"):
            GAIN_TAKERS[name](gain)

    @pytest.mark.parametrize("name", sorted(GAIN_TAKERS))
    def test_one_dimensional_gain_is_dimension_error(self, name):
        with pytest.raises(DimensionError, match="2-d"):
            GAIN_TAKERS[name](np.ones(3))

    def test_empty_gain_is_dimension_error(self):
        with pytest.raises(DimensionError, match="nonempty"):
            min_norm_inverse(np.zeros((0, 3)))

    def test_k_t_check_refuses_nan(self):
        # NaN compares false with every bound, so the check must be written
        # as "not within" for a NaN defect to fail it.
        with pytest.raises(SingularMatrixError, match="K T = I"):
            _right_inverse(NAN_GAIN, NAN_GAIN)


class TestInverseRule:
    @pytest.mark.parametrize("name", sorted(INVERSE_TAKERS))
    def test_nan_inverse_is_validation_error(self, name):
        matrix = good_inverse().matrix.copy()
        matrix[1, 0] = math.nan
        with pytest.raises(ValidationError, match="non-finite"):
            INVERSE_TAKERS[name](matrix)

    @pytest.mark.parametrize("name", sorted(INVERSE_TAKERS))
    def test_one_dimensional_inverse_is_dimension_error(self, name):
        with pytest.raises(DimensionError, match="2-d"):
            INVERSE_TAKERS[name](np.ones(3))


class TestSpectrumRule:
    @pytest.mark.parametrize("bad", sorted(BAD_SPECTRA))
    @pytest.mark.parametrize("name", sorted(SPECTRUM_TAKERS))
    def test_malformed_spectrum_is_refused(self, name, bad):
        spectrum, error, message = BAD_SPECTRA[bad]
        with pytest.raises(error, match=message):
            SPECTRUM_TAKERS[name](spectrum)

    @pytest.mark.parametrize("name", sorted(SPECTRUM_TAKERS))
    def test_zero_spectrum_has_no_whitener(self, name):
        with pytest.raises(SingularMatrixError, match="no positive eigenvalues"):
            SPECTRUM_TAKERS[name](np.zeros((2, 2)))

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("name", sorted(SPECTRUM_TAKERS))
    def test_array_and_cross_spectrum_give_the_same_bytes(self, name, rank):
        matrix = random_psd(np.random.default_rng(rank), 2, rank)
        spectrum = CrossSpectrum(matrix=matrix, frequency=10.0, n_epochs=4)
        assert result_bytes(SPECTRUM_TAKERS[name](matrix)) == result_bytes(
            SPECTRUM_TAKERS[name](spectrum)
        )

    def test_factor_band_follows_the_spectrum(self):
        gain, matrix = good_gain(), random_pd(np.random.default_rng(2), 2)
        assert all(math.isnan(edge) for edge in partial_field(gain, matrix).band)
        single = CrossSpectrum(matrix=matrix, frequency=10.0, n_epochs=4)
        assert partial_field(gain, single).band == (10.0, 10.0)
        averaged = CrossSpectrum(matrix=matrix, frequency=10.0, n_epochs=4, band=(8, 12))
        assert partial_field(gain, averaged).band == (8.0, 12.0)

    def test_same_voxel_pair_returns_before_the_spectrum(self):
        bad = BAD_SPECTRA["nan"][0]
        assert pairwise_partial(good_gain(), bad, 1, 1) == 1.0


class TestVoxelIds:
    @pytest.fixture(scope="class")
    def sources(self):
        rng = np.random.default_rng(3)
        gain = random_gain(rng, 3, 6)
        spectrum = random_pd(rng, 3)
        return gain, spectrum, partial_field(gain, spectrum), classical_field(
            min_norm_inverse(gain), spectrum
        )

    @pytest.mark.parametrize("voxel", [2.0, 1.5, "2", 6, -1])
    @pytest.mark.parametrize(
        "call",
        [
            "seeded_map",
            "pairwise_partial",
            "classical_coherence",
            "SeededMap",
            "connectivity_maps",
        ],
    )
    def test_bad_voxel_id_is_validation_error(self, sources, call, voxel):
        gain, spectrum, factor, field = sources
        calls = {
            "seeded_map": lambda: seeded_map(factor, voxel, "partial_coh"),
            "pairwise_partial": lambda: pairwise_partial(gain, spectrum, voxel, 0),
            "classical_coherence": lambda: seeded_map(field, voxel, "classical_coh"),
            "SeededMap": lambda: SeededMap(
                seed=voxel, values=np.ones(6), measure="partial_coh"
            ),
            "connectivity_maps": lambda: connectivity_maps(
                gain, spectrum, "classical_coh", [0, voxel]
            ),
        }
        with pytest.raises(ValidationError, match="integer|out of range"):
            calls[call]()

    def test_numpy_integer_ids_are_accepted(self, sources):
        gain, spectrum, factor, field = sources
        seed = np.int64(2)
        assert seeded_map(factor, seed, "partial_coh").seed == 2
        assert type(seeded_map(factor, seed, "partial_coh").seed) is int
        assert pairwise_partial(gain, spectrum, np.int32(2), 3) == pairwise_partial(
            gain, spectrum, 2, 3
        )
        assert np.array_equal(
            seeded_map(field, np.uint8(2), "classical_coh").values,
            seeded_map(field, 2, "classical_coh").values,
        )


    @pytest.mark.parametrize("flag", [True, False, np.True_], ids=repr)
    @pytest.mark.parametrize(
        "call",
        ["seeded_map", "classical_map", "pairwise_partial", "connectivity_maps", "SeededMap"],
    )
    def test_a_bool_is_not_a_voxel_id(self, sources, call, flag):
        # a Python bool is an int subclass, but True is not voxel 1
        gain, spectrum, factor, field = sources
        calls = {
            "seeded_map": ("seed", lambda: seeded_map(factor, flag, "partial_lagged")),
            "classical_map": ("seed", lambda: seeded_map(field, flag, "classical_coh")),
            "pairwise_partial": ("voxel", lambda: pairwise_partial(gain, spectrum, flag, 3)),
            "connectivity_maps": (
                "seed", lambda: connectivity_maps(gain, spectrum, "partial_lagged", [flag, 5])
            ),
            "SeededMap": (
                "seed", lambda: SeededMap(seed=flag, values=np.ones(6), measure="partial_coh")
            ),
        }
        name, taker = calls[call]
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {flag!r}$"):
            taker()


class TestSimulationCounts:
    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize(
        "name", ["n_epochs", "n_samples", "bio_noise_count", "seed"]
    )
    def test_a_bool_is_not_a_count(self, name, value):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {value}$"):
            SimulationConfig(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, 2.5, 10.0, "10"])
    @pytest.mark.parametrize(
        "name", ["n_epochs", "n_samples", "bio_noise_count", "seed"]
    )
    def test_non_integer_count_is_validation_error(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            SimulationConfig(**{name: value})

    def test_numpy_integers_become_ints(self):
        cfg = SimulationConfig(n_epochs=np.int64(12), seed=np.uint64(5))
        assert (cfg.n_epochs, cfg.seed) == (12, 5)
        assert type(cfg.n_epochs) is int and type(cfg.seed) is int


class TestSimulationVoxelIds:
    @pytest.mark.parametrize("pair", [(1.5, 3.9), (1.0, 3), (1, "3"), (1, math.nan)])
    def test_non_integer_source_voxels_are_validation_error(self, pair):
        with pytest.raises(ValidationError, match="source_voxels must be an integer"):
            SimulationConfig(source_voxels=pair)
        with pytest.raises(ValidationError, match="source_voxels must be an integer"):
            GroundTruth(source_voxels=pair, bio_voxels=(), source_series=np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("pair", [(True, 5), (5, False)])
    def test_a_bool_is_not_a_source_voxel(self, pair):
        flag = next(value for value in pair if isinstance(value, bool))
        message = f"^source_voxels must be an integer, got {flag}$"
        with pytest.raises(ValidationError, match=message):
            SimulationConfig(source_voxels=pair)
        with pytest.raises(ValidationError, match=message):
            GroundTruth(source_voxels=pair, bio_voxels=(), source_series=np.zeros((1, 2, 2)))
        with pytest.raises(ValidationError, match="^bio_voxels must be an integer, got True$"):
            GroundTruth(source_voxels=(1, 2), bio_voxels=(True,), source_series=np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("ids", [(1, 2, 3), (1,), 5])
    def test_source_voxels_need_exactly_two_ids(self, ids):
        with pytest.raises(ValidationError, match="needs two ids"):
            SimulationConfig(source_voxels=ids)
        with pytest.raises(ValidationError, match="needs two ids"):
            GroundTruth(source_voxels=ids, bio_voxels=(), source_series=np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("bio", [(4.0,), (4, 5.5), ("4",)])
    def test_non_integer_bio_voxels_are_validation_error(self, bio):
        with pytest.raises(ValidationError, match="bio_voxels must be an integer"):
            GroundTruth(source_voxels=(1, 2), bio_voxels=bio, source_series=np.zeros((1, 2, 2)))

    def test_numpy_integer_ids_become_ints(self, tmp_path):
        cfg = SimulationConfig(source_voxels=(np.int64(3), np.uint16(11)))
        truth = GroundTruth(
            source_voxels=np.array([3, 11]),
            bio_voxels=np.array([4, 5], dtype=np.int32),
            source_series=np.zeros((1, 2, 2)),
        )
        for ids in (cfg.source_voxels, truth.source_voxels, truth.bio_voxels):
            assert all(type(v) is int for v in ids)
        assert (cfg.source_voxels, truth.bio_voxels) == ((3, 11), (4, 5))
        write_config(tmp_path / "numpy.cfg", cfg)
        write_config(tmp_path / "plain.cfg", SimulationConfig(source_voxels=(3, 11)))
        text = (tmp_path / "numpy.cfg").read_text()
        assert text == (tmp_path / "plain.cfg").read_text()
        assert "source_voxels = 3,11\n" in text


class TestLaggedMeasureNonFinite:
    @pytest.mark.parametrize(
        "value", [complex(math.nan, 0.1), complex(0.1, math.nan), math.inf]
    )
    def test_non_finite_scalar_is_validation_error(self, value):
        with pytest.raises(ValidationError, match="finite"):
            lagged_measure(value)

    def test_non_finite_array_entry_is_validation_error(self):
        with pytest.raises(ValidationError, match="finite"):
            lagged_measure(np.array([0.1 + 0.2j, complex(math.nan, 0.0), 0.3j]))


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=30, max_size=30),
)
@settings(max_examples=40, deadline=None)
def test_weighted_inverses_are_reflexive(seed, weights):
    """Inverse independence: every positive weighting gives a reflexive g-inverse."""
    rng = np.random.default_rng(seed)
    gain = random_gain(rng, 6, 30)
    spectrum = random_pd(rng, 6)
    check = reflexive_residuals(gain, spectrum, weighted_inverse(gain, weights))
    assert check.ginverse_residual <= REFLEXIVE_TOL
    assert check.reflexive_residual <= REFLEXIVE_TOL
