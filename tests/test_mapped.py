"""Inverses and maps in page mappings of their own; gains on the heap.

The two arrays a pass makes and drops in bulk, a Cholesky-route right
inverse and a seeded map's values, take a private, populated mapping from
128 KiB on, so dropping one gives its memory back to the system; smaller
ones, and every lead field's gain, are plain numpy arrays. The values are
those of the plain expressions, bit for bit.
"""

import mmap
import os
import types

import numpy as np
import pytest

from conftest import random_pd
from pcfield import (
    CrossSpectrum,
    EpochedRecording,
    ValidationError,
    builtin_1020_electrodes,
    classical_field,
    max_over_seeds,
    min_norm_inverse,
    partial_field,
    seeded_map,
    spherical_grid,
    synth_leadfield,
)
from pcfield import forward
from pcfield.forward import _MAPPED_MIN_BYTES, _mapped_empty


def owner(array):
    """The object that holds ``array``'s memory, past views and memoryviews."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    base = array.base
    return base.obj if isinstance(base, memoryview) else base


def is_mapped(array) -> bool:
    return isinstance(owner(array), mmap.mmap)


def resident_bytes() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")


@pytest.fixture(scope="module")
def dense_leadfield():
    # 19 x 20 572: the gain, T and one map are all past the threshold, and only
    # T and the map are mapped
    leadfield = synth_leadfield(builtin_1020_electrodes(), spherical_grid(0.05))
    assert 8 * leadfield.n_voxels >= _MAPPED_MIN_BYTES
    return leadfield


class TestMappedEmpty:
    def test_a_large_array_is_a_writable_private_mapping(self):
        array = _mapped_empty((4, _MAPPED_MIN_BYTES // 32))
        assert is_mapped(array)
        assert array.shape == (4, _MAPPED_MIN_BYTES // 32)
        assert array.dtype == np.float64 and array.flags.c_contiguous
        array[:] = 2.5
        assert np.all(array == 2.5)

    def test_below_the_threshold_it_is_np_empty(self):
        array = _mapped_empty((_MAPPED_MIN_BYTES // 8 - 1,))
        assert array.flags.owndata and not is_mapped(array)
        assert is_mapped(_mapped_empty((_MAPPED_MIN_BYTES // 8,)))

    def test_without_private_mappings_it_is_np_empty(self, monkeypatch):
        monkeypatch.setattr(forward, "mmap", types.SimpleNamespace(mmap=mmap.mmap))
        array = _mapped_empty((4, _MAPPED_MIN_BYTES // 8))
        assert array.flags.owndata and not is_mapped(array)

    def test_without_populate_it_is_still_a_private_mapping(self, monkeypatch):
        namespace = types.SimpleNamespace(mmap=mmap.mmap, MAP_PRIVATE=mmap.MAP_PRIVATE)
        monkeypatch.setattr(forward, "mmap", namespace)
        array = _mapped_empty((4, _MAPPED_MIN_BYTES // 8))
        assert is_mapped(array)
        array[:] = 1.5
        assert np.all(array == 1.5)

    @needs_proc
    @pytest.mark.skipif(not hasattr(mmap, "MAP_POPULATE"), reason="needs MAP_POPULATE")
    def test_a_large_request_is_resident_before_any_write(self):
        # 8 MiB, populated by the call that maps it
        before = resident_bytes()
        array = _mapped_empty((1024, 1024))
        assert is_mapped(array)
        assert resident_bytes() - before >= 0.9 * array.nbytes

    @needs_proc
    def test_dropping_a_mapped_array_returns_its_pages(self):
        # a freed malloc block of this size raises glibc's threshold to it,
        # after which np.empty of the same size would stay resident when dropped
        np.empty(3_000_000).fill(0.0)
        before = resident_bytes()
        array = _mapped_empty((3_000_000,))
        array.fill(1.0)
        assert resident_bytes() - before >= 20_000_000
        del array
        assert resident_bytes() - before <= 4_000_000


class TestMappedOperands:
    def test_the_gain_is_a_plain_array_with_the_bits_of_the_plain_expression(
        self, dense_leadfield
    ):
        gain = dense_leadfield.gain
        assert gain.flags.owndata and not is_mapped(gain) and not gain.flags.writeable
        positions = dense_leadfield.voxels.positions
        for row, electrode in zip(gain[:3], dense_leadfield.electrodes.positions):
            delta = positions - electrode
            dx, dy, dz = delta.T
            assert np.array_equal(row, 1.0 / np.sqrt(dx * dx + dy * dy + dz * dz))

    def test_the_inverse_is_mapped_with_the_bits_of_the_plain_product(self, dense_leadfield):
        gain = np.array(dense_leadfield.gain)
        inverse = min_norm_inverse(dense_leadfield).matrix
        assert is_mapped(inverse) and not inverse.flags.writeable
        root_inverse = np.linalg.inv(np.linalg.cholesky(gain @ gain.T))
        assert np.array_equal(inverse, ((root_inverse.T @ root_inverse) @ gain).T)

    def test_a_small_gain_and_inverse_stay_plain_arrays(self):
        leadfield = synth_leadfield(builtin_1020_electrodes(), spherical_grid(0.145))
        assert not is_mapped(leadfield.gain)
        assert not is_mapped(min_norm_inverse(leadfield).matrix)


class TestMappedMaps:
    @pytest.mark.parametrize("method", ["partial", "classical"])
    def test_maps_and_composites_are_mapped_and_read_only(self, method, dense_leadfield):
        rng = np.random.default_rng(31)
        spectrum = CrossSpectrum(matrix=random_pd(rng, 19), frequency=10.0, n_epochs=1)
        if method == "partial":
            source = partial_field(dense_leadfield, spectrum)
        else:
            source = classical_field(min_norm_inverse(dense_leadfield), spectrum)
        maps = [seeded_map(source, seed, f"{method}_lagged") for seed in (3, 900)]
        composite = max_over_seeds(maps)
        for entry in (*maps, composite):
            assert is_mapped(entry.values) and not entry.values.flags.writeable
        plain = np.maximum(maps[0].values, maps[1].values)
        plain[[3, 900]] = maps[1].values[3], maps[0].values[900]
        assert np.array_equal(composite.values, plain)


class TestRecordingFiniteness:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_sample_is_refused_with_its_message(self, bad):
        data = np.zeros((2, 4, 3))
        data[1, 2, 0] = bad
        with pytest.raises(ValidationError, match=r"^epoch data contains non-finite values$"):
            EpochedRecording(data=data, rate=64.0)
