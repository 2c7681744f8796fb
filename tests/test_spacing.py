"""Grid spacing search: `min_nn_distance` against exact reference searches."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfield import (
    DimensionError,
    ValidationError,
    VoxelGrid,
    min_nn_distance,
    spherical_grid,
)


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


def sort_and_sweep_min_distance(positions: np.ndarray) -> float:
    """The earlier exact search: the reference for grids too large for brute force.

    Sorted on the coordinate with the largest range, pairs are measured by
    sort offset k = 1, 2, ... until the smallest gap along that axis at
    offset k is no less than the best distance found.
    """
    points = np.asarray(positions, dtype=np.float64)
    axis = int(np.argmax(np.ptp(points, axis=0)))
    points = points[np.argsort(points[:, axis])]
    coordinate = points[:, axis]
    best = np.inf
    for k in range(1, points.shape[0]):
        if (coordinate[k:] - coordinate[:-k]).min() >= best:
            break
        best = min(best, float(np.linalg.norm(points[k:] - points[:-k], axis=1).min()))
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


def close_pair_beside(far: float) -> np.ndarray:
    """A pair 1e-6 apart beside points ``far`` away, which widen the cell side."""
    return np.array(
        [
            [0.25, -0.5, 1.0],
            [0.25 + 1e-6, -0.5, 1.0 - 2e-7],
            [far, 0.0, 0.0],
            [-far, far, 3.0],
            [far, far, -far],
            [1.0, 2.0, 3.0],
        ]
    )


def cluster_in_cloud() -> np.ndarray:
    rng = np.random.default_rng(11)
    cloud = rng.uniform(-1e3, 1e3, (2000, 3))
    cluster = np.array([1.5, -7.0, 20.0]) + rng.uniform(0.0, 1e-6, (300, 3))
    return rng.permutation(np.vstack([cloud, cluster]))


def collinear() -> np.ndarray:
    offsets = np.random.default_rng(12).uniform(-5.0, 5.0, 600)
    return np.outer(offsets, [1.0, -2.0, 0.5]) + [3.0, 1.0, -4.0]


def coplanar() -> np.ndarray:
    rng = np.random.default_rng(13)
    rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    plane = np.column_stack([rng.standard_normal((600, 2)), np.full(600, 2.5)])
    return plane @ rotation.T


def with_duplicates() -> np.ndarray:
    points = spherical_grid(0.2).positions
    return np.vstack([points, points[[17, 230]]])


@pytest.mark.parametrize(
    "points, expected",
    [
        pytest.param(close_pair_beside(1e10), math.hypot(1e-6, 2e-7), id="far-1e10"),
        pytest.param(close_pair_beside(1e50), math.hypot(1e-6, 2e-7), id="far-1e50"),
        pytest.param(cluster_in_cloud(), None, id="cluster-in-cloud"),
        pytest.param(collinear(), None, id="collinear"),
        pytest.param(coplanar(), None, id="coplanar"),
        pytest.param(np.array([[1.0, 2.0, 3.0], [1.5, -2.0, 3.25]]), None, id="two-points"),
        pytest.param(with_duplicates(), 0.0, id="duplicates"),
    ],
)
def test_structured_sets_match_brute_force(points, expected):
    result = min_nn_distance(points)
    assert result == brute_force_min_distance(points)
    if expected is not None:
        assert abs(result - expected) <= 1e-15


@pytest.mark.parametrize("spacing", [0.045, 0.035])
def test_large_lattices_match_sort_and_sweep(spacing):
    positions = spherical_grid(spacing).positions
    assert min_nn_distance(positions) == sort_and_sweep_min_distance(positions)


def test_sixty_thousand_voxels_in_well_under_a_second():
    positions = spherical_grid(0.035).positions
    assert positions.shape[0] == 60005
    min_nn_distance(positions)
    start = time.perf_counter()
    min_nn_distance(positions)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f} s"


@pytest.mark.parametrize(
    "points, expected",
    [
        pytest.param(
            np.array([[0.0, 0.0, 0.0], [1e-3, 0.0, 0.0], [1e200, 0.0, 0.0]]),
            1e-3,
            id="square-overflows",
        ),
        pytest.param(
            np.array(
                [
                    [1e308, 0.0, 0.0],
                    [-1e308, 0.0, 0.0],
                    [0.0, 0.0, 0.0],
                    [0.0, 1e-3, 0.0],
                ]
            ),
            1e-3,
            id="gap-overflows",
        ),
        pytest.param(
            np.array([[1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]]),
            math.inf,
            id="every-pair-overflows",
        ),
    ],
)
def test_overflowing_pairs_measure_inf_without_a_warning(points, expected):
    with np.errstate(over="ignore"):
        oracle = brute_force_min_distance(points)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = min_nn_distance(points)
    assert result == oracle == expected


def test_infinite_spacing_is_refused_by_the_grid():
    points = np.array([[1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]])
    with pytest.raises(ValidationError, match="spacing"):
        VoxelGrid(positions=points, spacing=min_nn_distance(points))
