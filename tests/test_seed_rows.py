"""Seed rows read from the real operand, and the arrays they rely on.

A built field's seeded maps read the gain ``K`` (partial) or ``T'``
(classical) instead of the complex thin factor. Here they are held to the
thin-factor rows, computed in the test, over gain shapes, rank-deficient
and ill-conditioned spectra, scalings of ``K`` and ``S``, both inverse
kinds and a saved-and-loaded factor. Because the rows read the operand
after the field is built, the objects and fields must own what they read:
writing to a caller's array afterwards must move nothing.
"""

import dataclasses
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gain, random_pd
from pcfield import (
    ClassicalField,
    ConnectivityFactor,
    CrossSpectrum,
    DimensionError,
    ElectrodeArray,
    InverseOperator,
    LeadField,
    ValidationError,
    VoxelGrid,
    builtin_1020_electrodes,
    classical_field,
    gain_fingerprint,
    lagged_measure,
    load_factor,
    min_norm_inverse,
    partial_field,
    save_factor,
    seeded_map,
    spherical_grid,
    synth_leadfield,
    weighted_inverse,
)
from pcfield import confield, forward
from pcfield.confield import MEASURES

#: Largest gap allowed between a seeded map and the thin-factor reference.
PARITY_TOL = 1e-12

#: Lagged values are compared where ``1 - Re(r)^2`` is at least this: the
#: measure's slope is below its reciprocal, so a rounding-level gap in
#: ``r`` stays far below ``PARITY_TOL``. Coherence values are compared
#: everywhere.
LAGGED_MARGIN = 1e-2


def thin_factor_row(source, seed):
    """The seed's row from the thin factor, as the maps were made before."""
    if isinstance(source, ConnectivityFactor):
        return source.W @ np.conj(source.W[seed])
    row = source.A @ np.conj(source.A[seed])
    return row / np.sqrt(source.diag * source.diag[seed])


def assert_map_matches_row(source, seed, measure, row):
    """``seeded_map`` agrees with the measure of the reference ``row``."""
    values = seeded_map(source, seed, measure).values
    if measure.endswith("_coh"):
        expected = np.abs(row)
        expected[seed] = 1.0
        compared = np.ones(row.size, dtype=bool)
    else:
        row = row.copy()
        row[seed] = 0.0
        expected = lagged_measure(row)
        compared = 1.0 - row.real**2 >= LAGGED_MARGIN
    gap = np.abs(values - np.clip(expected, 0.0, 1.0))[compared]
    assert gap.max(initial=0.0) <= PARITY_TOL


def spectrum_with(rng, n_channels, rank, log_condition):
    """A complex PSD spectrum of the given rank, eigenvalues 1 .. 10^-log_condition."""
    draws = rng.standard_normal((n_channels, n_channels))
    basis, _ = np.linalg.qr(draws + 1j * rng.standard_normal((n_channels, n_channels)))
    eigenvalues = np.zeros(n_channels)
    eigenvalues[:rank] = np.logspace(0.0, -log_condition, rank)
    return (basis * eigenvalues) @ basis.conj().T


@given(
    shape=st.sampled_from([(2, 2), (2, 7), (3, 3), (4, 11), (6, 25)]),
    rank_drop=st.integers(min_value=0, max_value=4),
    log_condition=st.floats(min_value=0.0, max_value=10.0),
    gain_exponent=st.integers(min_value=-6, max_value=6),
    spectrum_exponent=st.integers(min_value=-6, max_value=6),
    weighted=st.booleans(),
    measure=st.sampled_from(MEASURES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_seeded_maps_match_thin_factor_rows(
    shape, rank_drop, log_condition, gain_exponent, spectrum_exponent, weighted, measure, seed
):
    rng = np.random.default_rng(seed)
    n_electrodes, n_voxels = shape
    gain = random_gain(rng, n_electrodes, n_voxels) * 10.0**gain_exponent
    rank = max(1, n_electrodes - rank_drop)
    spectrum = spectrum_with(rng, n_electrodes, rank, log_condition) * 10.0**spectrum_exponent
    if measure.startswith("partial"):
        source = partial_field(gain, spectrum)
    elif weighted:
        weights = rng.uniform(0.1, 10.0, n_voxels)
        source = classical_field(weighted_inverse(gain, weights), spectrum)
    else:
        source = classical_field(min_norm_inverse(gain), spectrum)
    seeds = rng.choice(n_voxels, size=min(3, n_voxels), replace=False)
    for voxel in seeds.tolist():
        assert_map_matches_row(source, voxel, measure, thin_factor_row(source, voxel))
    if measure.startswith("partial"):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "factor.pcf"
            save_factor(path, source)
            loaded = load_factor(path)
        for voxel in seeds.tolist():
            # a loaded factor has no gain, so its rows are the thin rows
            assert_map_matches_row(loaded, voxel, measure, thin_factor_row(source, voxel))


@pytest.mark.parametrize("measure", MEASURES)
def test_reference_lead_field_maps_match_thin_factor_rows(measure):
    leadfield = synth_leadfield(builtin_1020_electrodes(), spherical_grid())
    rng = np.random.default_rng(21)
    spectrum = CrossSpectrum(matrix=random_pd(rng, 19), frequency=10.0, n_epochs=40)
    if measure.startswith("partial"):
        source = partial_field(leadfield, spectrum)
    else:
        source = classical_field(min_norm_inverse(leadfield), spectrum)
    for voxel in rng.choice(leadfield.n_voxels, size=40, replace=False).tolist():
        assert_map_matches_row(source, voxel, measure, thin_factor_row(source, voxel))


@pytest.mark.parametrize("measure", ["partial_coh", "partial_lagged"])
def test_a_field_without_an_operand_keeps_the_thin_factor_bits(measure):
    rng = np.random.default_rng(13)
    gain = random_gain(rng, 5, 14)
    built = partial_field(gain, random_pd(rng, 5))
    direct = dataclasses.replace(built)
    for voxel in (0, 6, 13):
        row = built.W @ np.conj(built.W[voxel])
        if measure.endswith("_coh"):
            expected = np.abs(row)
            expected[voxel] = 1.0
        else:
            row[voxel] = 0.0
            expected = lagged_measure(row)
        values = seeded_map(direct, voxel, measure).values
        assert values.tobytes() == np.clip(expected, 0.0, 1.0).tobytes()


@pytest.mark.parametrize("method", ["partial", "classical"])
def test_replace_reads_the_rows_of_the_new_factor(method):
    rng = np.random.default_rng(17)
    gain = random_gain(rng, 5, 14)
    first, second = random_pd(rng, 5), random_pd(rng, 5)
    if method == "partial":
        old, new = partial_field(gain, first), partial_field(gain, second)
        swapped = dataclasses.replace(old, W=new.W)
    else:
        inverse = min_norm_inverse(gain)
        old, new = classical_field(inverse, first), classical_field(inverse, second)
        swapped = dataclasses.replace(old, root=new.root)
    for measure in (f"{method}_coh", f"{method}_lagged"):
        for voxel in (0, 6, 13):
            ours = seeded_map(swapped, voxel, measure).values
            assert np.allclose(ours, seeded_map(new, voxel, measure).values, rtol=0, atol=1e-12)
            assert not np.allclose(ours, seeded_map(old, voxel, measure).values)


@pytest.mark.parametrize("matrix", [np.full((4, 2), np.nan), np.ones(4)], ids=["nan", "1-d"])
def test_a_builders_inverse_meets_the_same_checks(matrix):
    for fresh in (False, True):
        with pytest.raises((ValidationError, DimensionError)):
            InverseOperator(matrix=matrix.copy(), _fresh=fresh)


@pytest.mark.parametrize("built", [True, False], ids=["classical_field", "direct"])
def test_dead_voxel_refusal_keeps_its_message_without_warnings(built):
    spectrum = random_pd(np.random.default_rng(3), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if built:
            inverse = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.5, 0.5]])
            field = classical_field(inverse, spectrum)
        else:
            field = ClassicalField(inverse=[[1.0], [0.0], [0.0], [2.0]], root=[[1.0]])
        assert field.dead_voxels.tolist() == ([2] if built else [1, 2])
        message = (
            f"{field.dead_voxels.size} voxel\\(s\\) have zero source variance "
            f"\\(first: {field.dead_voxels[0]}\\); classical coherence is undefined"
        )
        for measure in ("classical_coh", "classical_lagged"):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                seeded_map(field, 0, measure)


def strided(array):
    """``array`` as a view of every other column of a wider buffer, and that buffer."""
    base = np.zeros((array.shape[0], 2 * array.shape[1]))
    base[:, ::2] = array
    return base[:, ::2], base


def test_writes_to_the_callers_arrays_move_no_object_and_no_map():
    rng = np.random.default_rng(8)
    reference = synth_leadfield(builtin_1020_electrodes(), spherical_grid(0.3))
    n_electrodes, n_voxels = reference.gain.shape
    spectrum = random_pd(rng, n_electrodes)
    voxel_view, voxel_base = strided(reference.voxels.positions)
    electrode_view, electrode_base = strided(reference.electrodes.positions)
    gain_view, gain_base = strided(reference.gain)
    inverse_matrix = min_norm_inverse(reference).matrix
    inverse_view, inverse_base = strided(inverse_matrix)
    owned_positions = np.array(reference.voxels.positions)

    grid = VoxelGrid(positions=voxel_view, spacing=0.3)
    owned_grid = VoxelGrid(positions=owned_positions, spacing=0.3)
    electrodes = ElectrodeArray(labels=reference.electrodes.labels, positions=electrode_view)
    leadfield = LeadField(gain=gain_view, electrodes=electrodes, voxels=grid)
    inverse = InverseOperator(matrix=inverse_view)
    fortran = InverseOperator(matrix=np.asfortranarray(inverse_matrix))
    sources = {
        "object": (partial_field(leadfield, spectrum), classical_field(inverse, spectrum)),
        "array": (partial_field(gain_view, spectrum), classical_field(inverse_view, spectrum)),
    }
    text = grid.row_text
    seeds = [0, n_voxels // 2, n_voxels - 1]

    def maps():
        return [
            seeded_map(source, seed, f"{method}_{kind}").values
            for partial, classical in sources.values()
            for method, source in (("partial", partial), ("classical", classical))
            for kind in ("coh", "lagged")
            for seed in seeds
        ]

    before = maps()
    for base in (voxel_base, electrode_base, gain_base, inverse_base, owned_positions):
        base[...] = 0.25  # the caller's own buffers stay writable
    assert np.array_equal(grid.positions, reference.voxels.positions)
    assert np.array_equal(owned_grid.positions, reference.voxels.positions)
    assert grid.row_text == text == reference.voxels.row_text
    assert np.array_equal(electrodes.positions, reference.electrodes.positions)
    assert np.array_equal(leadfield.gain, reference.gain)
    assert np.array_equal(inverse.matrix, inverse_matrix)
    assert fortran.matrix.flags.f_contiguous
    for holder in (grid, owned_grid, electrodes):
        assert not holder.positions.flags.writeable
    assert not leadfield.gain.flags.writeable and not inverse.matrix.flags.writeable
    for new, old in zip(maps(), before):
        assert np.array_equal(new, old)


def test_a_lead_field_is_hashed_once_however_many_fields_use_it(monkeypatch):
    calls = []

    def counting(gain):
        calls.append(gain.shape)
        return gain_fingerprint(gain)

    monkeypatch.setattr(forward, "gain_fingerprint", counting)
    monkeypatch.setattr(confield, "gain_fingerprint", counting)
    rng = np.random.default_rng(5)
    leadfield = synth_leadfield(builtin_1020_electrodes(), spherical_grid(0.3))
    factors = [partial_field(leadfield, random_pd(rng, 19)) for _ in range(3)]
    assert len(calls) == 1
    assert {factor.fingerprint for factor in factors} == {gain_fingerprint(leadfield.gain)}
    assert leadfield.fingerprint() == factors[0].fingerprint
    # a bare gain has no object to keep the digest, so it is hashed per call
    assert partial_field(leadfield.gain, random_pd(rng, 19)).fingerprint == factors[0].fingerprint
    assert len(calls) == 2


def test_a_factor_or_field_built_from_arrays_keeps_copies_of_them():
    rng = np.random.default_rng(9)
    gain = random_gain(rng, 5, 14)
    built = partial_field(gain, random_pd(rng, 5)), classical_field(gain.T, random_pd(rng, 5))
    W, T, R = (np.array(array) for array in (built[0].W, built[1].inverse, built[1].root))
    factor = ConnectivityFactor(
        W=W, method="partial", band=built[0].band, fingerprint=built[0].fingerprint,
        effective_rank=built[0].effective_rank,
    )
    field = ClassicalField(inverse=T, root=R)
    other = classical_field(gain.T, random_pd(rng, 5))
    new_T, new_R = np.array(other.inverse), np.array(other.root)
    swapped = dataclasses.replace(field, inverse=new_T, root=new_R)
    sources = [(factor, "partial"), (field, "classical"), (swapped, "classical")]

    def maps():
        return [
            seeded_map(source, seed, f"{method}_{kind}").values
            for source, method in sources
            for kind in ("coh", "lagged")
            for seed in (0, 6, 13)
        ]

    before = maps()
    for array in (W, T, R, new_T, new_R):
        array[...] = 0.5  # the caller's own buffers stay writable
    for new, old in zip(maps(), before):
        assert np.array_equal(new, old)
    for held in (field, swapped):
        for array in (held.inverse, held.root, held.diag):
            assert not array.flags.writeable
    assert not factor.W.flags.writeable
    assert np.array_equal(swapped.A, other.A) and np.array_equal(swapped.diag, other.diag)
    for seed in (0, 6, 13):
        assert np.allclose(
            seeded_map(swapped, seed, "classical_coh").values,
            seeded_map(other, seed, "classical_coh").values,
            rtol=0, atol=1e-12,
        )


def test_load_factor_freezes_the_matrix_it_read_in_place(tmp_path, monkeypatch):
    rng = np.random.default_rng(10)
    factor = partial_field(random_gain(rng, 5, 14), random_pd(rng, 5))
    save_factor(tmp_path / "factor.pcf", factor)
    read = []

    def reading(path):
        read.append(forward.read_pcf1(path))
        return read[-1]

    monkeypatch.setattr(confield, "read_pcf1", reading)
    loaded = load_factor(tmp_path / "factor.pcf")
    assert loaded.W is read[0] and not loaded.W.flags.writeable
    assert np.array_equal(loaded.W, factor.W)


def whole_operand_row(rows, seed):
    """A built field's seed row as one product over its whole operand."""
    mixed = rows.mixer @ np.conj(rows.operand[:, seed] @ rows.mixer)
    mixed *= rows.scale[seed]
    parts = mixed.view(np.float64).reshape(-1, 2).T @ rows.operand
    row = np.empty(parts.shape[1], dtype=np.complex128)
    row.real, row.imag = parts * rows.scale
    return row


@pytest.mark.parametrize("n_voxels", [1, 1023, 1024, 1025, 2049, 3079])
def test_blocked_seed_rows_equal_one_product_over_the_operand(n_voxels, monkeypatch):
    rng = np.random.default_rng(n_voxels)
    n_electrodes = 7
    spectrum = random_pd(rng, n_electrodes)
    inverse = rng.standard_normal((n_voxels, n_electrodes))
    sources = [
        classical_field(inverse, spectrum),
        classical_field(np.asfortranarray(inverse), spectrum),
    ]
    assert sources[1].inverse.flags.f_contiguous
    if n_voxels >= n_electrodes:
        gain = random_gain(rng, n_electrodes, n_voxels)
        sources.append(partial_field(gain, spectrum))
        # and a partial factor of rank 3, from a rank-deficient spectrum
        sources.append(partial_field(gain, spectrum_with(rng, n_electrodes, 3, 2.0)))
    blocks = []
    every_block = confield._row_blocks

    def recording(n_rows):
        for start, stop in every_block(n_rows):
            blocks.append(stop - start)
            yield start, stop

    monkeypatch.setattr(confield, "_row_blocks", recording)
    for source in sources:
        for seed in sorted({0, n_voxels // 2, n_voxels - 1}):
            blocks.clear()
            row = source._rows(seed)
            assert row.tobytes() == whole_operand_row(source._rows, seed).tobytes()
            assert sum(blocks) == n_voxels
            # numpy takes a one-voxel product with a vector kernel: no block is one voxel
            assert min(blocks) > 1 or n_voxels == 1


@pytest.mark.parametrize("method", ["partial", "classical"])
def test_a_lagged_seeded_map_peaks_under_five_voxel_vectors(method):
    # the complex row is two voxel vectors and the map one; the lagged
    # measure's steps reuse one more buffer instead of a fresh one each
    rng = np.random.default_rng(27)
    leadfield = synth_leadfield(builtin_1020_electrodes(), spherical_grid(0.07))
    spectrum = CrossSpectrum(matrix=random_pd(rng, 19), frequency=10.0, n_epochs=1)
    if method == "partial":
        source = partial_field(leadfield, spectrum)
    else:
        source = classical_field(min_norm_inverse(leadfield), spectrum)
    measure = f"{method}_lagged"
    seeded_map(source, 5, measure)  # the first map caches the dead-voxel check
    tracemalloc.start()
    try:
        mapped = seeded_map(source, 100, measure)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mapped.n_voxels == leadfield.n_voxels == 7497
    vectors = peak / (8 * leadfield.n_voxels)
    assert vectors < 5.0, f"peak of {vectors:.2f} voxel float64 vectors"

