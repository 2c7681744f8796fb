"""Grid spacing search: `min_nn_distance` against a brute-force oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfield import DimensionError, ValidationError, min_nn_distance, spherical_grid


def brute_force_min_distance(positions: np.ndarray) -> float:
    """Chunked O(n^2) search over every pair; the reference for exact equality."""
    points = np.asarray(positions, dtype=np.float64)
    n = points.shape[0]
    best = np.inf
    chunk = 512
    for start in range(0, n, chunk):
        block = points[start : start + chunk]
        distances = np.linalg.norm(block[:, None, :] - points[None, :, :], axis=2)
        rows = np.arange(block.shape[0])
        distances[rows, start + rows] = np.inf
        best = min(best, float(distances.min()))
    return best


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=400),
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
    duplicate=st.booleans(),
    flat_axis=st.sampled_from([None, 0, 1, 2]),
)
@settings(max_examples=60, deadline=None)
def test_random_clouds_match_brute_force(seed, n, log_scale, duplicate, flat_axis):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, 3)) * 10.0**log_scale
    if flat_axis is not None:
        points[:, flat_axis] = points[0, flat_axis]
    if duplicate:
        points[rng.integers(n)] = points[rng.integers(n)]
        points[-1] = points[0]
    result = min_nn_distance(points)
    assert result == brute_force_min_distance(points)
    if duplicate:
        assert result == 0.0


@pytest.mark.parametrize("spacing", [0.2, 0.145, 0.1])
def test_lattices_match_brute_force(spacing):
    positions = spherical_grid(spacing).positions
    assert min_nn_distance(positions) == brute_force_min_distance(positions)


def test_rotated_translated_lattice_matches_brute_force():
    rotation, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    positions = spherical_grid(0.145).positions @ rotation.T + np.array([3.0, -1.25, 0.5])
    result = min_nn_distance(positions)
    assert result == brute_force_min_distance(positions)
    assert abs(result - 0.145) < 1e-12


def test_memory_is_linear_in_points():
    positions = spherical_grid(0.07).positions
    tracemalloc.start()
    try:
        min_nn_distance(positions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("shape", [(5,), (5, 2), (5, 4), (2, 5, 3)])
def test_positions_must_be_n_by_3(shape):
    with pytest.raises(DimensionError, match=r"\(n, 3\)"):
        min_nn_distance(np.arange(math.prod(shape), dtype=float).reshape(shape))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_position_is_validation_error(value):
    points = spherical_grid(0.2).positions.copy()
    points[7, 1] = value
    with pytest.raises(ValidationError, match="finite"):
        min_nn_distance(points)
