"""Forward model: montage, grid, lead field, inverses, resolution, PCF1 IO."""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import awkward_grid, csv_writer_bytes
from pcfield import (
    DimensionError,
    ElectrodeArray,
    FormatError,
    InverseOperator,
    LeadField,
    PcfieldError,
    SingularMatrixError,
    ValidationError,
    VoxelGrid,
    builtin_1020_electrodes,
    electrode_seed_voxels,
    gain_fingerprint,
    load_leadfield,
    min_nn_distance,
    min_norm_inverse,
    mp_symmetry_defect,
    parse_config,
    read_electrodes_csv,
    read_epochs_csv,
    read_map_csv,
    read_pcf1,
    read_voxels_csv,
    resolution_matrix,
    save_leadfield,
    spherical_grid,
    synth_leadfield,
    voxel_under_electrode,
    weighted_inverse,
    write_electrodes_csv,
    write_pcf1,
    write_voxels_csv,
)
from pcfield.cli import _read_truth_sources
from pcfield.forward import read_manifest
from pcfield.simharness import peak_localization_error

LEFT = ("Fp1", "F7", "F3", "T3", "C3", "T5", "P3", "O1")
RIGHT = ("Fp2", "F8", "F4", "T4", "C4", "T6", "P4", "O2")
MIDLINE = ("Fz", "Cz", "Pz")


@pytest.fixture(scope="module")
def montage():
    return builtin_1020_electrodes()


@pytest.fixture(scope="module")
def small_leadfield():
    # coarse but full-rank instance for fast structural tests
    return synth_leadfield(builtin_1020_electrodes(), spherical_grid(0.25))


class TestMontage:
    def test_nineteen_unique_labels(self, montage):
        assert len(montage) == 19
        assert len(set(montage.labels)) == 19

    def test_unit_sphere(self, montage):
        norms = np.linalg.norm(montage.positions, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_vertex_and_midline(self, montage):
        assert np.allclose(montage.positions[montage.index_of("Cz")], [0, 0, 1], atol=1e-12)
        for label in MIDLINE:
            assert abs(montage.positions[montage.index_of(label)][0]) < 1e-12

    def test_hemisphere_sides(self, montage):
        for label in LEFT:
            assert montage.positions[montage.index_of(label)][0] < 0
        for label in RIGHT:
            assert montage.positions[montage.index_of(label)][0] > 0

    def test_anterior_posterior(self, montage):
        for label in ("Fp1", "Fp2", "Fz", "F3", "F4", "F7", "F8"):
            assert montage.positions[montage.index_of(label)][1] > 0
        for label in ("O1", "O2", "Pz", "P3", "P4", "T5", "T6"):
            assert montage.positions[montage.index_of(label)][1] < 0

    def test_left_right_mirror_symmetry(self, montage):
        for left, right in zip(LEFT, RIGHT):
            a = montage.positions[montage.index_of(left)]
            b = montage.positions[montage.index_of(right)]
            assert np.allclose(a * [-1.0, 1.0, 1.0], b, atol=1e-12)

    def test_index_of_unknown_label(self, montage):
        with pytest.raises(KeyError):
            montage.index_of("Oz")

    def test_duplicate_labels_rejected(self):
        positions = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValidationError):
            ElectrodeArray(labels=("A", "A"), positions=positions)

    def test_off_sphere_rejected(self):
        with pytest.raises(ValidationError):
            ElectrodeArray(labels=("A",), positions=np.array([[0.0, 0.0, 0.9]]))

    def test_nan_position_rejected(self):
        positions = np.array([[np.nan, np.nan, np.nan], [0.0, 1.0, 0.0]])
        with pytest.raises(ValidationError):
            ElectrodeArray(labels=("A", "B"), positions=positions)

    def test_empty_array_rejected(self):
        with pytest.raises(DimensionError, match="empty"):
            ElectrodeArray(labels=(), positions=np.zeros((0, 3)))


class TestGrid:
    def test_strictly_inside_radius(self):
        grid = spherical_grid(0.2, radius=0.85)
        assert np.all(np.linalg.norm(grid.positions, axis=1) < 0.85)

    def test_known_lattice_counts(self):
        assert len(spherical_grid(0.14)) == 925
        assert len(spherical_grid(0.145)) == 847

    def test_lattice_spacing_recovered(self):
        grid = spherical_grid(0.2)
        assert abs(min_nn_distance(grid.positions) - 0.2) < 1e-12

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValidationError):
            VoxelGrid(positions=np.zeros((2, 3)), spacing=0.1)

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValidationError):
            spherical_grid(0.0)
        with pytest.raises(ValidationError):
            VoxelGrid(positions=np.array([[0.0, 0.0, 0.0]]), spacing=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_spacing_rejected(self, value):
        with pytest.raises(ValidationError, match="spacing"):
            VoxelGrid(positions=np.array([[0.0, 0.0, 0.0]]), spacing=value)
        with pytest.raises(ValidationError, match="spacing"):
            spherical_grid(value)
        with pytest.raises(ValidationError, match="radius"):
            spherical_grid(0.2, radius=value)

    def test_min_nn_distance_needs_two_points(self):
        with pytest.raises(ValidationError):
            min_nn_distance(np.array([[0.0, 0.0, 0.0]]))


class TestSynthLeadField:
    def test_single_pair_inverse_distance(self):
        electrodes = ElectrodeArray(labels=("A",), positions=np.array([[0.0, 0.0, 1.0]]))
        voxels = VoxelGrid(positions=np.array([[0.0, 0.0, 0.5]]), spacing=0.1)
        leadfield = synth_leadfield(electrodes, voxels)
        assert leadfield.gain[0, 0] == 2.0

    def test_mirror_symmetric_geometry(self):
        electrodes = ElectrodeArray(
            labels=("L", "R"),
            positions=np.array([[-0.6, 0.0, 0.8], [0.6, 0.0, 0.8]]),
        )
        voxels = VoxelGrid(
            positions=np.array([[-0.3, 0.0, 0.3], [0.3, 0.0, 0.3]]), spacing=0.6
        )
        gain = synth_leadfield(electrodes, voxels).gain
        assert gain[0, 0] == gain[1, 1]
        assert gain[0, 1] == gain[1, 0]

    def test_builtin_montage_dense_grid_has_full_rank(self, montage):
        leadfield = synth_leadfield(montage, spherical_grid(0.14))
        assert leadfield.gain.shape == (19, 925)
        assert np.linalg.matrix_rank(leadfield.gain) == 19

    @pytest.mark.parametrize("spacing", [0.145, 0.1])
    def test_bytes_match_broadcast_distances(self, montage, spacing):
        # row-at-a-time distances give the bytes of the full
        # (electrodes, voxels, 3) broadcast difference tensor's norm
        grid = spherical_grid(spacing)
        deltas = montage.positions[:, None, :] - grid.positions[None, :, :]
        expected = 1.0 / np.linalg.norm(deltas, axis=2)
        assert synth_leadfield(montage, grid).gain.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("layout", ["strided", "fortran"])
    def test_bits_match_per_row_norm_on_non_contiguous_positions(self, layout):
        rng = np.random.default_rng(17)
        directions = rng.standard_normal((16, 3))
        electrodes = ElectrodeArray(
            labels=tuple(f"E{k}" for k in range(16)),
            positions=directions / np.linalg.norm(directions, axis=1, keepdims=True),
        )

        def grid_of(points):
            if layout == "fortran":
                return VoxelGrid(positions=np.asfortranarray(points), spacing=0.1)
            wide = np.zeros((len(points), 6))
            wide[:, ::2] = points
            return VoxelGrid(positions=wide[:, ::2], spacing=0.1)

        points = rng.uniform(-0.8, 0.8, (500, 3))
        grid = grid_of(points)
        assert not grid.positions.flags.c_contiguous
        expected = 1.0 / np.stack(
            [np.linalg.norm(grid.positions - p, axis=1) for p in electrodes.positions]
        )
        assert np.array_equal(synth_leadfield(electrodes, grid).gain, expected)
        points[7] = electrodes.positions[3]
        with pytest.raises(ValidationError, match="coincides"):
            synth_leadfield(electrodes, grid_of(points))

    def test_voxel_on_electrode_rejected(self, montage):
        voxels = VoxelGrid(
            positions=np.vstack([montage.positions[0], np.zeros(3)]), spacing=0.5
        )
        electrodes = ElectrodeArray(labels=montage.labels[:2], positions=montage.positions[:2])
        with pytest.raises(ValidationError, match="coincides"):
            synth_leadfield(electrodes, voxels)

    def test_fewer_voxels_than_electrodes_rejected(self, montage):
        voxels = VoxelGrid(positions=np.array([[0.0, 0.0, 0.0]]), spacing=0.1)
        with pytest.raises(DimensionError):
            synth_leadfield(montage, voxels)

    def test_rank_deficient_gain_rejected(self, montage):
        grid = spherical_grid(0.25)
        gain = np.ones((19, len(grid)))  # rank 1
        with pytest.raises(SingularMatrixError, match="full row rank"):
            LeadField(gain=gain, electrodes=montage, voxels=grid)

    def test_fingerprint_tracks_content(self, small_leadfield):
        digest = small_leadfield.fingerprint()
        assert digest == gain_fingerprint(small_leadfield.gain)
        modified = small_leadfield.gain.copy()
        modified[0, 0] += 1e-9
        assert gain_fingerprint(modified) != digest

    def test_seed_voxel_is_nearest_to_electrode(self, small_leadfield):
        for label in ("Fp1", "O2", "Cz"):
            row = small_leadfield.electrodes.index_of(label)
            distances = np.linalg.norm(
                small_leadfield.voxels.positions
                - small_leadfield.electrodes.positions[row],
                axis=1,
            )
            assert voxel_under_electrode(small_leadfield, label) == int(np.argmin(distances))

    def test_electrode_seed_voxels_order(self, small_leadfield):
        seeds = electrode_seed_voxels(small_leadfield)
        assert len(seeds) == 19
        assert seeds[0] == voxel_under_electrode(small_leadfield, "Fp1")


class TestInverses:
    def test_min_norm_identity_gain(self):
        assert np.allclose(min_norm_inverse(np.eye(3)).matrix, np.eye(3), atol=1e-14)

    def test_min_norm_single_row(self):
        inverse = min_norm_inverse(np.array([[1.0, 1.0]]))
        assert np.allclose(inverse.matrix, [[0.5], [0.5]], atol=1e-14)

    def test_min_norm_orthonormal_rows(self):
        gain = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.allclose(min_norm_inverse(gain).matrix, gain.T, atol=1e-14)

    def test_weighted_reduces_to_min_norm_at_unit_weights(self, small_leadfield):
        plain = min_norm_inverse(small_leadfield).matrix
        weighted = weighted_inverse(small_leadfield, np.ones(small_leadfield.n_voxels)).matrix
        assert np.allclose(weighted, plain, atol=1e-12)

    def test_weighted_single_row(self):
        inverse = weighted_inverse(np.array([[1.0, 1.0]]), [1.0, 3.0])
        assert np.allclose(inverse.matrix, [[0.25], [0.75]], atol=1e-14)

    def test_weights_cancel_on_disjoint_support(self):
        gain = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        inverse = weighted_inverse(gain, [2.0, 2.0, 5.0])
        assert np.allclose(inverse.matrix, gain.T, atol=1e-14)

    def test_right_inverse_identity_holds(self, small_leadfield):
        rng = np.random.default_rng(0)
        for inverse in (
            min_norm_inverse(small_leadfield),
            weighted_inverse(small_leadfield, rng.uniform(0.5, 2.0, small_leadfield.n_voxels)),
        ):
            product = small_leadfield.gain @ inverse.matrix
            assert np.linalg.norm(product - np.eye(19)) <= 1e-8

    def test_nonpositive_weights_rejected(self, small_leadfield):
        weights = np.ones(small_leadfield.n_voxels)
        weights[3] = 0.0
        with pytest.raises(ValidationError):
            weighted_inverse(small_leadfield, weights)

    def test_weight_count_mismatch(self, small_leadfield):
        with pytest.raises(DimensionError):
            weighted_inverse(small_leadfield, np.ones(7))

    def test_singular_gram_rejected(self):
        with pytest.raises((SingularMatrixError, np.linalg.LinAlgError)):
            min_norm_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_min_norm_refuses_tall_gain_by_shape(self):
        gain = np.random.default_rng(2).standard_normal((5, 3))
        with pytest.raises(DimensionError, match="gain is 5 x 3: a right inverse"):
            min_norm_inverse(gain)

    def test_weighted_refuses_tall_gain_by_shape(self):
        gain = np.random.default_rng(2).standard_normal((5, 3))
        with pytest.raises(DimensionError, match="gain is 5 x 3: a right inverse"):
            weighted_inverse(gain, [1.0, 2.0, 3.0])


def gain_with_ratio(rows, cols, ratio, seed):
    """Random gain whose singular values run from 1 down to ``ratio``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, rows)))
    return (u * np.geomspace(1.0, ratio, rows)) @ v.T


def lu_right_inverse(gain, weighted_gain):
    """``T`` from one LU solve of ``K W K' T' = K W``, the reference route."""
    return np.linalg.solve(weighted_gain @ gain.T, weighted_gain).T


def cholesky_candidate(gain):
    """``T`` from the Cholesky factor ``L`` of ``K K'``: ``T' = L^-T (L^-1 K)``."""
    root_inverse = np.linalg.inv(np.linalg.cholesky(gain @ gain.T))
    return (root_inverse.T @ (root_inverse @ gain)).T


def identity_defect(gain, matrix):
    return np.linalg.norm(gain @ matrix - np.eye(gain.shape[0]))


class TestRightInverseRoutes:
    """The Cholesky route against the LU solve that decides when it fails."""

    def test_lu_decides_when_the_cholesky_candidate_misses_the_check(self):
        # at a singular-value ratio of 1e-4 the Cholesky candidate of some
        # of these gains misses K T = I by a little, while LU meets it
        decided_by_lu = []
        for seed in range(10):
            gain = gain_with_ratio(32, 400, 1e-4, seed)
            if (
                identity_defect(gain, cholesky_candidate(gain)) > 1e-8
                and identity_defect(gain, lu_right_inverse(gain, gain)) <= 1e-8
            ):
                decided_by_lu.append(seed)
                inverse = min_norm_inverse(gain).matrix
                assert np.array_equal(inverse, lu_right_inverse(gain, gain))
        assert decided_by_lu, "no gain in the sweep exercises the LU fallback"

    def test_a_gain_lu_refuses_keeps_its_message(self):
        gain = gain_with_ratio(19, 200, 1e-7, seed=4)
        assert identity_defect(gain, lu_right_inverse(gain, gain)) > 1e-8
        with pytest.raises(SingularMatrixError, match="failed the K T = I check"):
            min_norm_inverse(gain)

    @pytest.mark.parametrize("ratio", [1.0, 1e-1, 1e-2])
    def test_routes_agree_on_well_conditioned_gains(self, ratio, small_leadfield):
        rng = np.random.default_rng(7)
        for gain in (gain_with_ratio(19, 300, ratio, seed=5), small_leadfield.gain):
            weights = rng.uniform(0.5, 2.0, gain.shape[1])
            for ours, reference in (
                (min_norm_inverse(gain).matrix, lu_right_inverse(gain, gain)),
                (
                    weighted_inverse(gain, weights).matrix,
                    lu_right_inverse(gain, gain * weights[None, :]),
                ),
            ):
                gap = np.max(np.abs(ours - reference)) / np.max(np.abs(reference))
                assert gap <= 1e-10


class TestResolution:
    def test_identity_gain(self):
        assert np.allclose(resolution_matrix(np.eye(2)), np.eye(2), atol=1e-14)

    def test_single_row_projector(self):
        expected = np.full((2, 2), 0.5)
        assert np.allclose(resolution_matrix(np.array([[1.0, 1.0]])), expected, atol=1e-14)

    def test_projector_properties(self, small_leadfield):
        h = resolution_matrix(small_leadfield)
        assert np.array_equal(h, h.T)
        assert np.linalg.norm(h @ h - h) <= 1e-8
        assert abs(np.trace(h) - 19.0) <= 1e-8

    def test_dense_form_refused_above_voxel_cap(self):
        rng = np.random.default_rng(3)
        gain = rng.standard_normal((3, 2001))
        with pytest.raises(DimensionError, match="2001 voxels would materialize"):
            resolution_matrix(gain)

    def test_near_rank_deficient_gain_refused(self):
        # last row copies the third up to 1e-9: LU may finish, but K T != I
        rng = np.random.default_rng(17)
        gain = rng.standard_normal((4, 30))
        gain[3] = gain[2] + 1e-9 * rng.standard_normal(30)
        for derive in (min_norm_inverse, resolution_matrix):
            with pytest.raises(SingularMatrixError):
                derive(gain)


class TestMpSymmetryDefect:
    def test_min_norm_is_symmetric(self, small_leadfield):
        inverse = min_norm_inverse(small_leadfield)
        assert mp_symmetry_defect(small_leadfield, inverse) <= 1e-10

    def test_hand_value_for_skewed_weights(self):
        gain = np.array([[1.0, 1.0]])
        inverse = weighted_inverse(gain, [1.0, 3.0])
        # T K = [[.25,.25],[.75,.75]]; asymmetry norm sqrt(2)*0.5
        defect = mp_symmetry_defect(gain, inverse)
        assert abs(defect - np.sqrt(2.0) * 0.5) <= 1e-12

    def test_scalar_weights_cancel(self, small_leadfield):
        weights = np.full(small_leadfield.n_voxels, 2.5)
        inverse = weighted_inverse(small_leadfield, weights)
        assert mp_symmetry_defect(small_leadfield, inverse) <= 1e-10

    def test_trace_route_agrees_with_dense(self):
        rng = np.random.default_rng(4)
        gain = rng.standard_normal((4, 2500))
        weights = rng.uniform(0.2, 5.0, 2500)
        inverse = weighted_inverse(gain, weights)
        large = mp_symmetry_defect(gain, inverse)
        projector = inverse.matrix @ gain
        direct = float(np.linalg.norm(projector.T - projector))
        assert abs(large - direct) <= 1e-6 * max(direct, 1.0)

    def test_min_norm_is_symmetric_above_dense_cap(self):
        leadfield = synth_leadfield(builtin_1020_electrodes(), spherical_grid(0.07))
        assert leadfield.n_voxels > 2000
        inverse = min_norm_inverse(leadfield)
        assert mp_symmetry_defect(leadfield, inverse) <= 1e-10

    def test_shape_mismatch(self, small_leadfield):
        bad = InverseOperator(matrix=np.zeros((3, 19)))
        with pytest.raises(DimensionError):
            mp_symmetry_defect(small_leadfield, bad)

    def test_one_dimensional_inverse_rejected(self, small_leadfield):
        with pytest.raises(DimensionError):
            mp_symmetry_defect(small_leadfield, np.zeros(small_leadfield.n_voxels))


class TestPcf1:
    def test_real_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((7, 4))
        path = tmp_path / "real.pcf"
        write_pcf1(path, matrix)
        assert np.array_equal(read_pcf1(path), matrix)

    def test_complex_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(6)
        matrix = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        path = tmp_path / "complex.pcf"
        write_pcf1(path, matrix)
        restored = read_pcf1(path)
        assert restored.dtype == np.complex128
        assert np.array_equal(restored, matrix)

    @pytest.mark.parametrize("code, dtype", [(0, "<f8"), (1, "<c16")])
    def test_the_file_is_the_header_then_the_row_major_payload(self, tmp_path, code, dtype):
        matrix = np.arange(24.0).reshape(4, 6).astype(dtype).T  # a view, not C-ordered
        path = tmp_path / "view.pcf"
        write_pcf1(path, matrix)
        header = b"PCF1" + struct.pack("<BII", code, 6, 4)
        assert path.read_bytes() == header + np.ascontiguousarray(matrix).tobytes()

    def test_writing_streams_the_payload_without_a_copy(self, tmp_path):
        # 2 MiB: the finiteness screen's booleans are an eighth of it
        matrix = np.random.default_rng(9).standard_normal((64, 4096))
        tracemalloc.start()
        try:
            write_pcf1(tmp_path / "large.pcf", matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix.nbytes // 4, f"{peak} B for a {matrix.nbytes} B payload"

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "trunc.pcf"
        write_pcf1(path, np.eye(3))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            read_pcf1(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "extra.pcf"
        write_pcf1(path, np.eye(2))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_pcf1(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "magic.pcf"
        write_pcf1(path, np.eye(2))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_pcf1(path)

    def test_non_finite_refused_on_write(self, tmp_path):
        with pytest.raises(FormatError):
            write_pcf1(tmp_path / "nan.pcf", np.array([[np.nan]]))

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "short.pcf"
        write_pcf1(path, np.eye(2))
        path.write_bytes(path.read_bytes()[:12])
        with pytest.raises(FormatError, match="truncated header"):
            read_pcf1(path)

    def test_unknown_dtype_code_rejected(self, tmp_path):
        path = tmp_path / "dtype.pcf"
        write_pcf1(path, np.eye(2))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unknown dtype code 99"):
            read_pcf1(path)

    def test_non_finite_payload_rejected_on_read(self, tmp_path):
        path = tmp_path / "nan.pcf"
        write_pcf1(path, np.eye(2))
        raw = bytearray(path.read_bytes())
        raw[13:21] = np.array([np.inf]).astype("<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="non-finite"):
            read_pcf1(path)


class TestGeometryCsv:
    def test_electrode_round_trip_exact(self, tmp_path, montage):
        path = tmp_path / "montage.csv"
        write_electrodes_csv(path, montage)
        restored = read_electrodes_csv(path)
        assert restored.labels == montage.labels
        assert np.array_equal(restored.positions, montage.positions)

    def test_voxel_round_trip_exact(self, tmp_path):
        grid = spherical_grid(0.3)
        path = tmp_path / "grid.csv"
        write_voxels_csv(path, grid)
        restored = read_voxels_csv(path)
        assert np.array_equal(restored.positions, grid.positions)
        assert abs(restored.spacing - 0.3) < 1e-12

    @pytest.mark.parametrize(
        "grid", [awkward_grid(), spherical_grid(0.3)], ids=["awkward", "lattice"]
    )
    def test_voxel_bytes_match_csv_writer(self, tmp_path, grid):
        path = tmp_path / "grid.csv"
        write_voxels_csv(path, grid)
        # oracle: the same rows, one list per row, through csv.writer
        rows = ([index, *xyz] for index, xyz in enumerate(grid.positions.tolist()))
        assert path.read_bytes() == csv_writer_bytes(["id", "x", "y", "z"], rows)

    def test_voxel_ids_must_be_contiguous(self, tmp_path):
        grid = spherical_grid(0.3)
        path = tmp_path / "grid.csv"
        write_voxels_csv(path, grid)
        lines = path.read_text().splitlines()
        lines[1] = "7" + lines[1][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            read_voxels_csv(path)

    def test_one_voxel_table_is_refused(self, tmp_path):
        # one voxel has no neighbour, so no spacing can be recovered
        path = tmp_path / "grid.csv"
        path.write_text("id,x,y,z\n0,0.0,0.0,0.5\n")
        with pytest.raises(ValidationError, match="need at least two positions"):
            read_voxels_csv(path)

    def test_save_load_leadfield_bitwise(self, tmp_path, small_leadfield):
        path = tmp_path / "lf.pcf"
        save_leadfield(small_leadfield, path)
        restored = load_leadfield(path)
        assert np.array_equal(restored.gain, small_leadfield.gain)
        assert restored.electrodes.labels == small_leadfield.electrodes.labels
        assert np.array_equal(restored.voxels.positions, small_leadfield.voxels.positions)
        assert restored.fingerprint() == small_leadfield.fingerprint()

    def test_complex_matrix_refused_as_leadfield(self, tmp_path, small_leadfield):
        path = tmp_path / "bad.pcf"
        save_leadfield(small_leadfield, path)
        write_pcf1(path, np.eye(3, dtype=np.complex128))
        with pytest.raises(FormatError, match="complex"):
            load_leadfield(path)


# One valid table per reader. The last field of the first row is a number,
# and the first header name is fixed (the epochs table's channel names are not).
TABLE_READERS = {
    "electrodes": (
        "label,x,y,z\nCz,0.0,0.0,1.0\nFz,0.0,1.0,0.0\n",
        read_electrodes_csv,
    ),
    "voxels": ("id,x,y,z\n0,0.0,0.0,0.0\n1,0.5,0.0,0.0\n", read_voxels_csv),
    "map": (
        "voxel_id,x,y,z,value\n0,0.0,0.0,0.0,0.5\n1,0.5,0.0,0.0,1.0\n",
        read_map_csv,
    ),
    "truth": (
        "role,voxel_id,x,y,z\nsource,0,0.0,0.0,0.0\nbio,1,0.5,0.0,0.0\n",
        _read_truth_sources,
    ),
    "epochs": (
        "epoch,t,Fp1,O2\n1,1,0.5,0.25\n1,2,0.125,0.0\n",
        lambda path: read_epochs_csv(path, rate=64.0),
    ),
    "manifest": (
        "key,value\nband_lo,8.0\nn_epochs,100\n",
        lambda path: read_manifest(path, {"band_lo": float, "n_epochs": int}),
    ),
}


def corrupt_table(text, defect):
    header, first, *rest = text.splitlines()
    cells = first.split(",")
    if defect == "no_rows":
        return header + "\n"
    if defect == "wrong_header":
        header = "bogus" + header
    elif defect == "short_row":
        cells.pop()
    elif defect == "extra_field":
        cells.append("0.0")
    else:
        cells[-1] = {"non_numeric": "zero", "nan": "nan", "inf": "-inf"}[defect]
    return "\n".join([header, ",".join(cells), *rest]) + "\n"


class TestTableReaders:
    @pytest.mark.parametrize(
        "defect",
        [
            "non_numeric", "nan", "inf", "short_row", "extra_field", "wrong_header",
            "no_rows",
        ],
    )
    @pytest.mark.parametrize("table", sorted(TABLE_READERS))
    def test_malformed_table_is_format_error(self, tmp_path, table, defect):
        text, read = TABLE_READERS[table]
        path = tmp_path / "table.csv"
        path.write_text(text)
        read(path)  # the valid table reads
        path.write_text(corrupt_table(text, defect))
        with pytest.raises(FormatError, match="table.csv"):
            read(path)

    @pytest.mark.parametrize("table", sorted(TABLE_READERS))
    def test_non_utf8_table_is_format_error(self, tmp_path, table):
        # one more defect, written as bytes: a 0xff byte in the first row
        text, read = TABLE_READERS[table]
        path = tmp_path / "table.csv"
        header, first, *rest = text.encode().splitlines()
        path.write_bytes(b"\n".join([header, first + b"\xff", *rest]) + b"\n")
        with pytest.raises(FormatError, match="table.csv: not UTF-8"):
            read(path)


# Tables with several rows, for the row-order rules. Per transform, a reader
# either rejects the input or returns exactly what it returns for the
# original; the electrode table is the one whose row order is data (the
# channel order). The truth table is checked through the score it feeds.
ROW_ORDER_READERS = {
    "electrodes": (
        "label,x,y,z\nCz,0.0,0.0,1.0\nFz,0.0,1.0,0.0\nT3,1.0,0.0,0.0\n",
        read_electrodes_csv,
        {"duplicated": "reject"},
    ),
    "voxels": (
        "id,x,y,z\n0,0.0,0.0,0.0\n1,0.5,0.0,0.0\n2,0.0,0.5,0.0\n",
        read_voxels_csv,
        {"reversed": "same", "duplicated": "reject"},
    ),
    "map": (
        "voxel_id,x,y,z,value\n0,0.0,0.0,0.0,0.5\n1,0.5,0.0,0.0,1.0\n"
        "2,0.0,0.5,0.0,0.25\n",
        read_map_csv,
        {"reversed": "same", "duplicated": "reject"},
    ),
    "truth": (
        "role,voxel_id,x,y,z\nsource,0,0.0,0.0,0.0\nbio,1,0.5,0.0,0.0\n"
        "source,2,0.0,0.5,0.0\n",
        lambda path: truth_score(_read_truth_sources(path)[1]),
        {"reversed": "same", "duplicated": "reject"},
    ),
    "epochs": (
        "epoch,t,Fp1,O2\n1,1,0.5,0.25\n1,2,0.125,0.0\n2,1,0.0,1.0\n2,2,1.0,0.5\n",
        lambda path: read_epochs_csv(path, rate=64.0),
        {"reversed": "reject", "duplicated": "reject"},
    ),
    "manifest": (
        "key,value\nband_lo,8.0\nn_epochs,100\nnote,free text\n",
        lambda path: read_manifest(path, {"band_lo": float, "n_epochs": int}),
        {"reversed": "same", "duplicated": "reject"},
    ),
    "config": (
        "n_epochs = 10\nseed = 3\nsource_voxels = 1,2\nrate = 32.0\n",
        parse_config,
        {"reversed": "same", "duplicated": "reject"},
    ),
}


def truth_score(sources):
    """The localization error that ``compare`` gives a fixed map against ``sources``."""
    positions = np.array([[0, 0, 0], [0.5, 0, 0], [0, 0.5, 0], [0.5, 0.5, 0]])
    return peak_localization_error([1.0, 0.25, 0.125, 0.5], positions, sources, 0.5)


def reorder_rows(text, transform, header):
    lines = text.splitlines()
    head, rows = (lines[:1], lines[1:]) if header else ([], lines)
    rows = rows[::-1] if transform == "reversed" else rows + rows
    return "\n".join(head + rows) + "\n"


def canonical(value):
    """A comparable form of a reader's result: arrays by bytes, dicts unordered."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if dataclasses.is_dataclass(value):
        return canonical([getattr(value, f.name) for f in dataclasses.fields(value)])
    if isinstance(value, dict):
        return sorted((key, canonical(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(canonical(item) for item in value)
    return value


class TestRowOrder:
    @pytest.mark.parametrize(
        "table, transform",
        [
            (table, transform)
            for table, (_, _, expected) in sorted(ROW_ORDER_READERS.items())
            for transform in expected
        ],
    )
    def test_reader_rejects_or_ignores_row_order(self, tmp_path, table, transform):
        text, read, expected = ROW_ORDER_READERS[table]
        path = tmp_path / "table.csv"
        path.write_text(text)
        original = read(path)
        path.write_text(reorder_rows(text, transform, header=table != "config"))
        if expected[transform] == "reject":
            with pytest.raises(PcfieldError):
                read(path)
        else:
            assert canonical(read(path)) == canonical(original)

    def test_electrode_rows_are_the_channel_order(self, tmp_path):
        text, read, _ = ROW_ORDER_READERS["electrodes"]
        path = tmp_path / "electrodes.csv"
        path.write_text(text)
        original = read(path)
        path.write_text(reorder_rows(text, "reversed", header=True))
        flipped = read(path)
        assert flipped.labels == original.labels[::-1]
        assert np.array_equal(flipped.positions, original.positions[::-1])


def test_duplicate_check_agrees_with_unique_rows():
    # planted duplicates, +0.0 against -0.0, and rows that share two coordinates
    rng = np.random.default_rng(28)
    refused = 0
    for _ in range(500):
        n_rows = int(rng.integers(1, 30))
        positions = rng.integers(-2, 3, size=(n_rows, 3)) * rng.choice([1.0, 0.5], size=3)
        positions[rng.random(positions.shape) < 0.2] *= -1.0
        if n_rows > 1 and rng.random() < 0.3:
            positions[rng.integers(n_rows)] = positions[rng.integers(n_rows)]
        duplicated = np.unique(positions, axis=0).shape[0] != n_rows
        refused += duplicated
        if duplicated:
            with pytest.raises(ValidationError, match="voxel grid contains duplicate positions"):
                VoxelGrid(positions=positions, spacing=1.0)
        else:
            assert len(VoxelGrid(positions=positions, spacing=1.0)) == n_rows
    assert 0 < refused < 500
    with pytest.raises(ValidationError, match="duplicate"):
        VoxelGrid(positions=[[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0]], spacing=1.0)
