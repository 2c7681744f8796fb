"""A built partial factor holds its operands, not its voxels x rank factor.

:func:`partial_field` keeps the gain, the whitener and the row norms; ``W``
is formed from them on each access, with the bits of the whole-matrix
expression ``(K' Gamma+ Lambda+^(-1/2)) / norms``. Maps and composites read
the operands and never form ``W``. A factor given a ``W`` keeps it.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import random_gain, random_pd
from pcfield import (
    ConnectivityFactor,
    CrossSpectrum,
    DimensionError,
    builtin_1020_electrodes,
    connectivity_maps,
    load_factor,
    partial_field,
    save_factor,
    spherical_grid,
    synth_leadfield,
)
from pcfield import confield
from pcfield.confield import MEASURES


def spectrum_of_rank(rng, n_channels, rank):
    """A complex PSD spectrum of the given rank, eigenvalues 1 .. 1e-3."""
    draws = rng.standard_normal((n_channels, n_channels))
    basis, _ = np.linalg.qr(draws + 1j * rng.standard_normal((n_channels, n_channels)))
    eigenvalues = np.zeros(n_channels)
    eigenvalues[:rank] = np.logspace(0.0, -3.0, rank)
    return (basis * eigenvalues) @ basis.conj().T


def whole_factor(gain, spectrum):
    """``W`` as one product over the whole gain, divided by its row norms."""
    whitener = CrossSpectrum(matrix=spectrum, frequency=10.0, n_epochs=1).decomposition
    pulled_back = confield._real_times_complex(gain.T, whitener.range_factor(-0.5))
    return pulled_back / np.linalg.norm(pulled_back, axis=1)[:, None]


# (electrodes, voxels, spectrum rank): one block, a lone last row, several
# blocks, and rank-deficient spectra
SHAPES = [(2, 2, 2), (5, 14, 5), (5, 14, 2), (7, 1025, 7), (7, 3079, 3), (19, 2049, 19)]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: "x".join(map(str, shape)))
def test_a_built_factors_W_has_the_bits_of_the_whole_matrix_expression(shape):
    n_electrodes, n_voxels, rank = shape
    rng = np.random.default_rng(n_voxels + rank)
    gain = random_gain(rng, n_electrodes, n_voxels)
    spectrum = spectrum_of_rank(rng, n_electrodes, rank)
    factor = partial_field(gain, spectrum)
    expected = whole_factor(gain, spectrum)
    assert factor.effective_rank == rank and factor.n_voxels == n_voxels
    assert factor.W.tobytes() == expected.tobytes()
    assert factor.W is not factor.W  # formed anew on each access


def test_a_saved_loaded_or_replaced_factor_keeps_the_same_W(tmp_path):
    rng = np.random.default_rng(28)
    gain = random_gain(rng, 7, 1500)
    spectrum = spectrum_of_rank(rng, 7, 4)
    factor = partial_field(gain, CrossSpectrum(matrix=spectrum, frequency=10.0, n_epochs=1))
    expected = whole_factor(gain, spectrum).tobytes()
    save_factor(tmp_path / "factor.pcf", factor)
    loaded = load_factor(tmp_path / "factor.pcf")
    replaced = dataclasses.replace(factor)
    for copy in (loaded, replaced):
        assert copy.W.tobytes() == expected
        assert copy.W is copy.W and not copy.W.flags.writeable
        assert (copy.band, copy.fingerprint) == (factor.band, factor.fingerprint)
    # the copy's file is the built factor's, byte for byte
    save_factor(tmp_path / "again.pcf", replaced)
    for name in ("factor.pcf", "factor.manifest.csv"):
        again = name.replace("factor", "again")
        assert (tmp_path / name).read_bytes() == (tmp_path / again).read_bytes()


def test_a_built_factor_holds_its_norms_and_whitener_only():
    # 7 497 voxels of rank 19: W alone would be 7.3 row blocks
    rng = np.random.default_rng(29)
    leadfield = synth_leadfield(builtin_1020_electrodes(), spherical_grid(0.07))
    leadfield.fingerprint()  # hashed once per lead field, not per build
    spectrum = CrossSpectrum(matrix=random_pd(rng, 19), frequency=10.0, n_epochs=1)
    whitener = spectrum.decomposition.range_factor(-0.5)
    block = confield._ROW_BLOCK * spectrum.decomposition.rank * 16
    tracemalloc.start()
    try:
        factor = partial_field(leadfield, spectrum)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    operands = 8 * leadfield.n_voxels + whitener.nbytes  # norms and whitener
    assert retained < operands + 2 * block, f"{retained - operands} B beyond the operands"
    assert peak - retained < 2 * block, f"{peak - retained} B beyond the factor"
    assert factor._rows.operand is leadfield.gain  # the lead field's array, uncopied


@pytest.mark.parametrize("measure", [m for m in MEASURES if m.startswith("partial")])
def test_maps_and_composites_of_a_built_factor_never_form_W(measure, monkeypatch):
    rng = np.random.default_rng(30)
    leadfield = synth_leadfield(builtin_1020_electrodes(), spherical_grid())
    spectrum = CrossSpectrum(matrix=random_pd(rng, 19), frequency=10.0, n_epochs=1)
    expected = connectivity_maps(leadfield, spectrum, measure, [3, 70, 500])

    def refuse(self):
        raise AssertionError("W was formed")

    monkeypatch.setattr(confield._Whitened, "unit_rows", refuse)
    source, maps, composite = connectivity_maps(leadfield, spectrum, measure, [3, 70, 500])
    assert source.n_voxels == leadfield.n_voxels
    for ours, theirs in zip((*maps, composite), (*expected[1], expected[2])):
        assert ours.values.tobytes() == theirs.values.tobytes()
    with pytest.raises(AssertionError, match="W was formed"):
        source.W


def test_a_given_W_is_still_required_and_checked():
    rng = np.random.default_rng(31)
    W = partial_field(random_gain(rng, 4, 9), random_pd(rng, 4)).W
    fields = dict(method="partial", band=(8.0, 12.0), fingerprint="0" * 64)
    with pytest.raises(DimensionError, match="3 columns"):
        ConnectivityFactor(W=W[:, :3], effective_rank=4, **fields)
    with pytest.raises(DimensionError, match="2-d"):
        ConnectivityFactor(W=W[0], effective_rank=4, **fields)
    with pytest.raises(TypeError, match="'W'"):
        ConnectivityFactor(effective_rank=4, **fields)
