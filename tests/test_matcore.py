"""Hermitian core: eigendecomposition, pseudo-inverses, reflexivity checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_pd, random_psd
from pcfield import (
    DimensionError,
    EigenDecomposition,
    HermitianMatrix,
    NotPositiveSemidefiniteError,
    SingularMatrixError,
    ValidationError,
    as_hermitian,
    direct_partial_coherence,
    hermitian_eig,
    is_reflexive_ginverse,
    moore_penrose,
)
from pcfield.matcore import _hermitian_part, psd_eig


class TestHermitianMatrix:
    def test_stores_exact_symmetrization(self):
        raw = np.array([[1.0, 2.0 + 1e-13j], [2.0 - 0.5e-13j, 3.0]])
        stored = HermitianMatrix(raw).values
        assert np.array_equal(stored, (raw + raw.conj().T) / 2.0)
        assert np.array_equal(np.imag(np.diag(stored)), [0.0, 0.0])

    def test_values_are_read_only(self):
        matrix = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            matrix.values[0, 0] = 5.0

    def test_rejects_visible_asymmetry(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            HermitianMatrix(np.array([[1.0, 2.0], [2.1, 1.0]]))

    def test_asymmetry_tolerance_scales_with_the_data(self):
        # a valid 19-channel spectrum in large units, with roundoff asymmetry
        rng = np.random.default_rng(31)
        spectrum = 1e6 * random_pd(rng, 19)
        noisy = spectrum * (1.0 + 1e-15 * rng.standard_normal(spectrum.shape))
        assert np.max(np.abs(noisy - noisy.conj().T)) > 1e-12
        HermitianMatrix(noisy)

    def test_rejects_asymmetry_at_small_scale(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            HermitianMatrix(1e-12 * np.triu(np.ones((4, 4))))

    def test_hermitian_part_stores_the_symmetrization_bit_for_bit(self):
        # a product that is Hermitian only up to rounding, as the internal
        # builders produce it
        rng = np.random.default_rng(5)
        factor = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        product = (factor * rng.uniform(0.1, 2.0, 3)) @ factor.conj().T
        expected = (product + product.conj().T) / 2.0
        assert _hermitian_part(product).values.tobytes() == expected.tobytes()

    def test_rejects_non_square_and_empty(self):
        with pytest.raises(DimensionError):
            HermitianMatrix(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            HermitianMatrix(np.zeros((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            HermitianMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_as_hermitian_passes_instances_through(self):
        matrix = HermitianMatrix(np.eye(3))
        assert as_hermitian(matrix) is matrix

    def test_array_protocol(self):
        matrix = HermitianMatrix(np.diag([2.0, 1.0]))
        assert np.asarray(matrix).dtype == np.complex128
        assert np.allclose(np.asarray(matrix, dtype=np.complex64), np.diag([2.0, 1.0]))


class TestHermitianEig:
    def test_scaled_identity(self):
        decomposition = hermitian_eig(2.0 * np.eye(3))
        assert np.array_equal(decomposition.eigenvalues, [2.0, 2.0, 2.0])
        vectors = decomposition.eigenvectors
        assert np.allclose(vectors @ vectors.conj().T, np.eye(3), atol=1e-14)
        assert decomposition.rank == 3

    def test_diagonal_case_sorted_nonincreasing(self):
        decomposition = hermitian_eig(np.diag([1.0, 4.0]))
        assert np.array_equal(decomposition.eigenvalues, [4.0, 1.0])
        assert np.allclose(np.abs(decomposition.eigenvectors), np.eye(2)[:, ::-1])

    def test_two_by_two_hand_values(self):
        # characteristic polynomial of [[2,1],[1,2]]: roots 3 and 1
        decomposition = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(decomposition.eigenvalues, [3.0, 1.0], atol=1e-12)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        first = decomposition.eigenvectors[:, 0]
        second = decomposition.eigenvectors[:, 1]
        assert min(np.linalg.norm(first - plus), np.linalg.norm(first + plus)) < 1e-12
        assert min(np.linalg.norm(second - minus), np.linalg.norm(second + minus)) < 1e-12

    def test_small_eigenvalues_forced_to_zero(self):
        decomposition = hermitian_eig(np.diag([1.0, 1e-14]))
        assert decomposition.eigenvalues[1] == 0.0
        assert decomposition.rank == 1

    def test_reconstruct_round_trip(self):
        rng = np.random.default_rng(7)
        matrix = random_pd(rng, 6)
        decomposition = hermitian_eig(matrix)
        assert np.allclose(decomposition.reconstruct(), matrix, atol=1e-12)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_eigenvalues_nonincreasing_and_real(self, n, seed):
        matrix = random_pd(np.random.default_rng(seed), n)
        decomposition = hermitian_eig(matrix)
        assert decomposition.eigenvalues.dtype == np.float64
        assert np.all(np.diff(decomposition.eigenvalues) <= 0.0)
        assert decomposition.rank == np.count_nonzero(decomposition.eigenvalues)


class TestRangeFactor:
    # range_factor(-1/2) is the whitener partial_field applies to S
    @pytest.mark.parametrize("rank", [6, 3])
    def test_whitens_the_range(self, rank):
        matrix = random_psd(np.random.default_rng(rank), 6, rank=rank)
        whitener = hermitian_eig(matrix).range_factor(-0.5)
        assert whitener.shape == (6, rank)
        whitened = whitener.conj().T @ matrix @ whitener
        assert np.allclose(whitened, np.eye(rank), atol=1e-10)

    def test_singular_diagonal_hand_value(self):
        whitener = hermitian_eig(np.diag([2.0, 0.0])).range_factor(-0.5)
        assert np.allclose(np.abs(whitener), [[1.0 / np.sqrt(2.0)], [0.0]], atol=1e-14)


def inv_sqrt(matrix):
    """``S^{+1/2}`` from the PSD whitener of a cross-spectrum: ``F Gamma+*``
    with ``F = range_factor(-1/2)``, as :func:`moore_penrose` builds ``S+``."""
    decomposition = psd_eig(matrix, "cross-spectrum")
    return decomposition.range_factor(-0.5) @ decomposition.range_factor(0.0).conj().T


class TestInvSqrt:
    def test_scaled_identity(self):
        assert np.allclose(inv_sqrt(4.0 * np.eye(2)), 0.5 * np.eye(2), atol=1e-14)

    def test_diagonal(self):
        result = inv_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(result, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_two_by_two_hand_values(self):
        # from the (3, 1) eigensystem: (1/sqrt(3) + 1)/2 and (1/sqrt(3) - 1)/2
        result = inv_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]]))
        expected = np.array([[0.7887, -0.2113], [-0.2113, 0.7887]])
        assert np.allclose(result, expected, atol=1e-3)

    def test_singular_input_uses_pseudo_branch(self):
        result = inv_sqrt(np.diag([2.0, 0.0]))
        assert np.allclose(result, np.diag([1.0 / np.sqrt(2.0), 0.0]), atol=1e-14)

    def test_whitening_property_on_full_rank(self):
        rng = np.random.default_rng(11)
        matrix = random_pd(rng, 5)
        u = inv_sqrt(matrix)
        assert np.allclose(u @ matrix @ u, np.eye(5), atol=1e-10)

    def test_projects_on_rank_deficient(self):
        rng = np.random.default_rng(12)
        matrix = random_psd(rng, 6, rank=3)
        u = inv_sqrt(matrix)
        projector = u @ matrix @ u
        # idempotent projector onto the column space, not the identity
        assert np.allclose(projector @ projector, projector, atol=1e-10)
        assert abs(np.trace(projector).real - 3.0) < 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefiniteError, match="cross-spectrum"):
            inv_sqrt(np.diag([1.0, -1.0]))


class TestMoorePenrose:
    def test_identity(self):
        assert np.allclose(moore_penrose(np.eye(4)).values, np.eye(4), atol=1e-14)

    def test_singular_diagonal(self):
        result = moore_penrose(np.diag([2.0, 0.0])).values
        assert np.allclose(result, np.diag([0.5, 0.0]), atol=1e-14)

    def test_rank_one_projector_is_its_own_inverse(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        matrix = np.outer(v, v)
        assert np.allclose(moore_penrose(matrix).values, matrix, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            moore_penrose(np.array([[0.0, 1.0], [1.0, 0.0]]))

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_all_four_mp_identities(self, n, rank, seed):
        rank = min(rank, n)
        matrix = random_psd(np.random.default_rng(seed), n, rank=rank)
        pseudo = moore_penrose(matrix).values
        scale = np.linalg.norm(matrix)
        assert np.linalg.norm(matrix @ pseudo @ matrix - matrix) <= 1e-8 * scale
        assert np.linalg.norm(pseudo @ matrix @ pseudo - pseudo) <= 1e-8 * np.linalg.norm(pseudo)
        product = matrix @ pseudo
        assert np.linalg.norm(product - product.conj().T) <= 1e-8
        product = pseudo @ matrix
        assert np.linalg.norm(product - product.conj().T) <= 1e-8


class TestReflexiveCheck:
    def test_identity_pair(self):
        check = is_reflexive_ginverse(np.eye(3), np.eye(3))
        assert check.is_reflexive and bool(check)
        assert check.ginverse_residual == 0.0
        assert check.reflexive_residual == 0.0

    def test_pseudo_inverse_of_singular_diagonal(self):
        assert is_reflexive_ginverse(np.diag([2.0, 0.0]), np.diag([0.5, 0.0]))

    def test_first_identity_alone_is_not_enough(self):
        # A G A = A holds but G A G = diag(0.5, 0) != G
        check = is_reflexive_ginverse(np.diag([2.0, 0.0]), np.diag([0.5, 1.0]))
        assert check.ginverse_residual <= 1e-12
        assert check.reflexive_residual > 0.5
        assert not check

    def test_perturbed_inverse_detected(self):
        rng = np.random.default_rng(3)
        matrix = random_pd(rng, 6)
        noisy = np.linalg.inv(matrix) + 1e-3 * rng.standard_normal((6, 6))
        check = is_reflexive_ginverse(matrix, noisy)
        assert not check
        assert max(check.ginverse_residual, check.reflexive_residual) > 1e-4

    def test_zero_zero_convention(self):
        check = is_reflexive_ginverse(np.zeros((2, 2)), np.zeros((2, 2)))
        assert check.is_reflexive
        assert check.ginverse_residual == 0.0

    def test_rectangular_pair(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert is_reflexive_ginverse(a, a.T)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            is_reflexive_ginverse(np.eye(2), np.eye(3))


class TestDirectPartialCoherence:
    def test_identity_input(self):
        assert np.array_equal(direct_partial_coherence(np.eye(4)).values, np.eye(4))

    def test_bivariate_hand_value(self):
        # inverse of [[1,.5],[.5,1]] is [[4/3,-2/3],[-2/3,4/3]]; normalized -> -0.5
        partial = direct_partial_coherence(np.array([[1.0, 0.5], [0.5, 1.0]])).values
        assert np.allclose(partial[0, 1], -0.5, atol=1e-12)
        assert partial[0, 0] == 1.0 and partial[1, 1] == 1.0

    def test_diagonal_is_exactly_one(self):
        rng = np.random.default_rng(5)
        partial = direct_partial_coherence(random_pd(rng, 7)).values
        assert np.array_equal(np.real(np.diag(partial)), np.ones(7))
        assert np.array_equal(np.imag(np.diag(partial)), np.zeros(7))

    def test_magnitudes_bounded_by_one(self):
        rng = np.random.default_rng(6)
        partial = direct_partial_coherence(random_pd(rng, 9)).values
        assert np.max(np.abs(partial)) <= 1.0 + 1e-12

    def test_rejects_singular(self):
        with pytest.raises(SingularMatrixError):
            direct_partial_coherence(np.diag([1.0, 0.0]))

    def test_rejects_indefinite(self):
        with pytest.raises(SingularMatrixError):
            direct_partial_coherence(np.diag([1.0, -2.0]))


class TestEigenDecompositionChecks:
    """A decomposition built by hand meets what hermitian_eig promises."""

    def test_rank_above_two_increasing_values_is_refused(self):
        with pytest.raises(ValidationError, match="nonincreasing"):
            EigenDecomposition(eigenvectors=np.eye(2), eigenvalues=np.array([1.0, 2.0]), rank=5)
        with pytest.raises(ValidationError, match="rank 5 does not count the 2 nonzero"):
            EigenDecomposition(eigenvectors=np.eye(2), eigenvalues=np.array([2.0, 1.0]), rank=5)

    def test_nan_and_a_basis_of_the_wrong_size_are_refused(self):
        values = np.array([np.nan, -1.0])
        with pytest.raises(DimensionError, match="3 eigenvectors need 3 eigenvalues"):
            EigenDecomposition(eigenvectors=np.eye(3), eigenvalues=values, rank=0)
        with pytest.raises(ValidationError, match="eigenvalues contain non-finite"):
            EigenDecomposition(eigenvectors=np.eye(2), eigenvalues=values, rank=0)

    @pytest.mark.parametrize(
        "vectors, match",
        [
            (np.ones((2, 3)), "square"),
            (np.ones(2), "square"),
            (np.ones((0, 0)), "nonempty"),
        ],
        ids=["wide", "1-d", "empty"],
    )
    def test_the_basis_must_be_a_nonempty_square_matrix(self, vectors, match):
        with pytest.raises(DimensionError, match=match):
            EigenDecomposition(eigenvectors=vectors, eigenvalues=np.ones(2), rank=2)

    def test_a_non_finite_basis_is_refused(self):
        vectors = np.eye(2, dtype=complex)
        vectors[1, 0] = complex(0.0, np.inf)
        with pytest.raises(ValidationError, match="eigenvectors contain non-finite"):
            EigenDecomposition(eigenvectors=vectors, eigenvalues=np.array([2.0, 1.0]), rank=2)

    def test_eigenvalues_must_be_a_vector_of_the_basis_size(self):
        with pytest.raises(DimensionError, match="got shape \\(2, 1\\)"):
            EigenDecomposition(eigenvectors=np.eye(2), eigenvalues=np.ones((2, 1)), rank=2)

    @pytest.mark.parametrize("rank", [True, 2.0, "2"], ids=["bool", "float", "str"])
    def test_rank_must_be_an_integer(self, rank):
        with pytest.raises(ValidationError, match="rank must be an integer"):
            EigenDecomposition(eigenvectors=np.eye(2), eigenvalues=np.array([2.0, 1.0]), rank=rank)

    def test_valid_parts_are_kept(self):
        values = np.array([3.0, 0.0, -1.0])  # Hermitian, not PSD: negatives are allowed
        decomposition = EigenDecomposition(
            eigenvectors=np.eye(3), eigenvalues=values, rank=np.int64(2)
        )
        assert type(decomposition.rank) is int and decomposition.rank == 2
        assert np.array_equal(decomposition.eigenvalues, values)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_hermitian_eig_output_passes_its_own_checks(self, n, seed):
        rng = np.random.default_rng(seed)
        matrix = random_psd(rng, n, int(rng.integers(1, n + 1)))
        matrix -= 0.5 * np.trace(matrix).real / n * np.eye(n)  # some negative eigenvalues
        decomposition = hermitian_eig(matrix)
        rebuilt = EigenDecomposition(
            eigenvectors=decomposition.eigenvectors,
            eigenvalues=decomposition.eigenvalues,
            rank=decomposition.rank,
        )
        assert np.array_equal(rebuilt.eigenvalues, decomposition.eigenvalues)
