"""One ownership rule for every array a value keeps.

A value type copies an array a caller passes, so the caller's array stays
writable and a later write to it moves nothing, and keeps that copy
read-only. A builder that has just made an array hands it over and no copy
is made.
"""

import numpy as np
import pytest

from conftest import random_gain, random_pd
from pcfield import (
    ClassicalField,
    ConnectivityFactor,
    CrossSpectrum,
    ElectrodeArray,
    EpochedRecording,
    GroundTruth,
    HermitianMatrix,
    InverseOperator,
    LeadField,
    SeededMap,
    SimulationConfig,
    VoxelGrid,
    builtin_1020_electrodes,
    load_leadfield,
    read_epochs_csv,
    save_leadfield,
    simulate_eeg,
    spherical_grid,
    synth_leadfield,
    write_epochs_csv,
)
from pcfield import forward, simharness, spectra

def _unit_rows(rng, rows, cols):
    matrix = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def _geometry(rng, n_electrodes, n_voxels):
    positions = rng.standard_normal((n_electrodes, 3))
    positions /= np.linalg.norm(positions, axis=1, keepdims=True)
    labels = tuple(f"E{k}" for k in range(n_electrodes))
    voxels = VoxelGrid(positions=rng.standard_normal((n_voxels, 3)), spacing=1.0)
    return ElectrodeArray(labels=labels, positions=positions), voxels


# Each case builds a value from caller arrays drawn from ``rng`` and returns
# (value's kept arrays, the caller's arrays, the value's matrix).
def _electrodes(rng):
    positions = np.eye(3)
    value = ElectrodeArray(labels=("a", "b", "c"), positions=positions)
    return [value.positions], [positions], value.positions


def _voxels(rng):
    positions = rng.standard_normal((6, 3))
    value = VoxelGrid(positions=positions, spacing=1.0)
    return [value.positions], [positions], value.positions


def _leadfield(rng):
    gain = random_gain(rng, 3, 8)
    value = LeadField(gain, *_geometry(rng, 3, 8))
    return [value.gain], [gain], value.gain


def _inverse(rng):
    matrix = rng.standard_normal((8, 3))
    value = InverseOperator(matrix=matrix)
    return [value.matrix], [matrix], value.matrix


def _hermitian(rng):
    entries = random_pd(rng, 4)
    value = HermitianMatrix(entries)
    return [value.values], [entries], value


def _decomposition(rng):
    matrix = random_pd(rng, 4)
    value = CrossSpectrum(matrix=matrix, frequency=10.0, n_epochs=3)
    decomposition = value.decomposition
    kept = [value.values, decomposition.eigenvectors, decomposition.eigenvalues]
    return kept, [matrix], value.matrix


def _recording(rng):
    data = rng.standard_normal((2, 8, 3))
    value = EpochedRecording(data=data, rate=8.0)
    return [value.data], [data], value.data


def _truth(rng):
    series = rng.standard_normal((2, 8, 2))
    value = GroundTruth(source_voxels=(0, 1), bio_voxels=(2,), source_series=series)
    return [value.source_series], [series], value.source_series


def _factor(rng):
    W = _unit_rows(rng, 8, 3)
    value = ConnectivityFactor(
        W=W, method="partial", band=(8.0, 12.0), fingerprint="0" * 64, effective_rank=3
    )
    return [value.W], [W], value.W


def _classical(rng):
    inverse = rng.standard_normal((8, 3))
    root = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    value = ClassicalField(inverse=inverse, root=root)
    return [value.inverse, value.root, value.diag], [inverse, root], value.inverse


def _seeded_map(rng):
    values = rng.uniform(0.0, 1.0, 8)
    value = SeededMap(seed=2, values=values, measure="partial_lagged")
    return [value.values], [values], value.values


CASES = {
    "ElectrodeArray": _electrodes,
    "VoxelGrid": _voxels,
    "LeadField": _leadfield,
    "InverseOperator": _inverse,
    "HermitianMatrix": _hermitian,
    "CrossSpectrum.decomposition": _decomposition,
    "EpochedRecording": _recording,
    "GroundTruth": _truth,
    "ConnectivityFactor": _factor,
    "ClassicalField": _classical,
    "SeededMap": _seeded_map,
}


@pytest.mark.parametrize("case", list(CASES))
def test_a_value_keeps_read_only_copies(case):
    kept, given, matrix = CASES[case](np.random.default_rng(26))
    before = [array.copy() for array in kept]
    for array in kept:
        assert not array.flags.writeable
        assert not any(np.shares_memory(array, mine) for mine in given)
    for array in given:
        assert array.flags.writeable
        array[...] = 0.25
    for array, snapshot in zip(kept, before):
        assert np.array_equal(array, snapshot)
    copied = np.array(matrix, copy=True)
    assert copied.flags.writeable
    assert not any(np.shares_memory(copied, array) for array in kept)


def test_np_asarray_of_a_hermitian_matrix_is_its_frozen_array():
    matrix = HermitianMatrix(random_pd(np.random.default_rng(26), 3))
    assert np.asarray(matrix) is matrix.values
    assert np.array(matrix, dtype=np.complex64).flags.writeable
    with pytest.raises(ValueError):
        np.array(matrix, dtype=np.complex64, copy=False)


def _spy(monkeypatch, module, cls, attribute):
    """Replace ``module.<cls>`` by a subclass that records what it is handed."""
    handed = []

    class Spy(cls):
        def __post_init__(self, _fresh):
            handed.append((getattr(self, attribute), _fresh))
            super().__post_init__(_fresh)

    monkeypatch.setattr(module, cls.__name__, Spy)
    return handed


CONFIG = SimulationConfig(n_epochs=3, n_samples=16)


def _by_synth_leadfield(monkeypatch, tmp_path, leadfield):
    handed = _spy(monkeypatch, forward, LeadField, "gain")
    return handed, synth_leadfield(leadfield.electrodes, leadfield.voxels).gain


def _by_load_leadfield(monkeypatch, tmp_path, leadfield):
    save_leadfield(leadfield, tmp_path / "lf.pcf")
    handed = _spy(monkeypatch, forward, LeadField, "gain")
    return handed, load_leadfield(tmp_path / "lf.pcf").gain


def _by_simulate_eeg(monkeypatch, tmp_path, leadfield):
    handed = _spy(monkeypatch, simharness, EpochedRecording, "data")
    return handed, simulate_eeg(CONFIG, leadfield)[0].data


def _by_read_epochs_csv(monkeypatch, tmp_path, leadfield):
    write_epochs_csv(tmp_path / "epochs.csv", simulate_eeg(CONFIG, leadfield)[0])
    handed = _spy(monkeypatch, spectra, EpochedRecording, "data")
    return handed, read_epochs_csv(tmp_path / "epochs.csv", rate=64.0).data


@pytest.mark.parametrize(
    "build", [_by_synth_leadfield, _by_load_leadfield, _by_simulate_eeg, _by_read_epochs_csv],
    ids=lambda build: build.__name__[4:],
)
def test_a_builder_hands_over_what_it_made(build, monkeypatch, tmp_path):
    leadfield = synth_leadfield(builtin_1020_electrodes(), spherical_grid(0.3))
    handed, kept = build(monkeypatch, tmp_path, leadfield)
    assert len(handed) == 1
    array, fresh = handed[0]
    assert fresh and kept is array
    assert not kept.flags.writeable
