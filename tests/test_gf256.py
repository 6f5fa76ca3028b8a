"""Tests for GF(256) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.gf256 import GF256

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestScalarArithmetic:
    def test_addition_is_xor(self):
        assert GF256.add(0b1010, 0b0110) == 0b1100
        assert GF256.sub(0b1010, 0b0110) == 0b1100

    def test_multiplication_identity_and_zero(self):
        for a in range(256):
            assert GF256.mul(a, 1) == a
            assert GF256.mul(a, 0) == 0

    def test_known_product(self):
        # 0x57 * 0x83 = 0xC1 in the AES field (FIPS-197 example).
        assert GF256.mul(0x57, 0x83) == 0xC1

    def test_inverse(self):
        for a in range(1, 256):
            assert GF256.mul(a, GF256.inv(a)) == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    def test_division(self):
        assert GF256.div(GF256.mul(17, 99), 99) == 17
        with pytest.raises(ZeroDivisionError):
            GF256.div(5, 0)
        assert GF256.div(0, 7) == 0

    def test_pow(self):
        assert GF256.pow(2, 0) == 1
        assert GF256.pow(0, 5) == 0
        assert GF256.pow(3, 2) == GF256.mul(3, 3)

    @given(a=elements, b=elements, c=elements)
    @settings(max_examples=100, deadline=None)
    def test_multiplication_distributes_over_addition(self, a, b, c):
        left = GF256.mul(a, GF256.add(b, c))
        right = GF256.add(GF256.mul(a, b), GF256.mul(a, c))
        assert left == right

    @given(a=elements, b=elements)
    @settings(max_examples=100, deadline=None)
    def test_multiplication_commutes(self, a, b):
        assert GF256.mul(a, b) == GF256.mul(b, a)

    @given(a=nonzero, b=nonzero)
    @settings(max_examples=100, deadline=None)
    def test_division_inverts_multiplication(self, a, b):
        assert GF256.div(GF256.mul(a, b), b) == a


class TestMatrixOperations:
    def test_mat_inv_roundtrip(self):
        matrix = GF256.vandermonde(4, 4)
        inverse = GF256.mat_inv(matrix)
        identity = GF256.mat_mul(matrix, inverse)
        assert np.array_equal(identity, np.eye(4, dtype=np.uint8))

    def test_mat_inv_singular_raises(self):
        singular = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(ValueError):
            GF256.mat_inv(singular)

    def test_mat_inv_requires_square(self):
        with pytest.raises(ValueError):
            GF256.mat_inv(np.zeros((2, 3), dtype=np.uint8))

    def test_mat_vec_rows_matches_scalar_math(self):
        matrix = GF256.vandermonde(3, 2)
        data = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8)
        result = GF256.mat_vec_rows(matrix, data)
        for i in range(3):
            for col in range(3):
                expected = 0
                for k in range(2):
                    expected ^= GF256.mul(int(matrix[i, k]), int(data[k, col]))
                assert result[i, col] == expected

    def test_mat_vec_rows_shape_mismatch(self):
        with pytest.raises(ValueError):
            GF256.mat_vec_rows(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8))

    def test_vandermonde_submatrices_invertible(self):
        # The MDS property: any k rows of the Vandermonde matrix form an
        # invertible k x k matrix.
        vander = GF256.vandermonde(8, 4)
        import itertools

        for rows in itertools.combinations(range(8), 4):
            GF256.mat_inv(vander[list(rows), :])  # must not raise

    def test_vandermonde_row_limit(self):
        with pytest.raises(ValueError):
            GF256.vandermonde(257, 4)


def _scalar_mat_vec(matrix: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Reference implementation: triple loop of scalar GF(256) operations."""
    m, k = matrix.shape
    width = data.shape[1]
    out = np.zeros((m, width), dtype=np.uint8)
    for row in range(m):
        for col in range(width):
            acc = 0
            for inner in range(k):
                acc ^= GF256.mul(int(matrix[row, inner]), int(data[inner, col]))
            out[row, col] = acc
    return out


class TestVectorizedKernelVsScalarReference:
    """The vectorised kernel must agree with plain scalar field arithmetic."""

    @given(
        m=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=1, max_value=6),
        width=st.integers(min_value=1, max_value=35),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_matrices(self, m, k, width, data):
        matrix = np.array(
            data.draw(
                st.lists(
                    st.lists(elements, min_size=k, max_size=k),
                    min_size=m,
                    max_size=m,
                )
            ),
            dtype=np.uint8,
        )
        payload = np.array(
            data.draw(
                st.lists(
                    st.lists(elements, min_size=width, max_size=width),
                    min_size=k,
                    max_size=k,
                )
            ),
            dtype=np.uint8,
        )
        assert np.array_equal(
            GF256.mat_vec_rows(matrix, payload), _scalar_mat_vec(matrix, payload)
        )

    def test_zero_rows_and_identity_coefficients(self):
        # A matrix mixing all special-cased coefficients: a fully zero row
        # (skipped entirely), coefficient 1 (XOR without table lookup), and a
        # generic coefficient (pair-table gather).
        matrix = np.array([[0, 0, 0], [1, 0, 1], [2, 7, 255]], dtype=np.uint8)
        data = np.arange(3 * 9, dtype=np.uint8).reshape(3, 9)
        result = GF256.mat_vec_rows(matrix, data)
        assert np.array_equal(result, _scalar_mat_vec(matrix, data))
        assert not result[0].any()

    def test_width_one(self):
        matrix = np.array([[3, 5], [1, 0]], dtype=np.uint8)
        data = np.array([[200], [47]], dtype=np.uint8)
        assert np.array_equal(
            GF256.mat_vec_rows(matrix, data), _scalar_mat_vec(matrix, data)
        )

    @pytest.mark.parametrize("width", [1, 2, 3, 8, 41, 100])
    def test_odd_and_even_widths(self, width):
        rng = np.random.default_rng(width)
        matrix = rng.integers(0, 256, size=(4, 3), dtype=np.uint8)
        data = rng.integers(0, 256, size=(3, width), dtype=np.uint8)
        assert np.array_equal(
            GF256.mat_vec_rows(matrix, data), _scalar_mat_vec(matrix, data)
        )

    def test_non_contiguous_data(self):
        rng = np.random.default_rng(7)
        matrix = rng.integers(0, 256, size=(3, 2), dtype=np.uint8)
        wide = rng.integers(0, 256, size=(2, 20), dtype=np.uint8)
        strided = wide[:, ::2]
        assert np.array_equal(
            GF256.mat_vec_rows(matrix, strided),
            _scalar_mat_vec(matrix, np.ascontiguousarray(strided)),
        )

    def test_mat_vec_into_matches_array_kernel(self):
        rng = np.random.default_rng(13)
        matrix = rng.integers(0, 256, size=(4, 3), dtype=np.uint8)
        data = rng.integers(0, 256, size=(3, 17), dtype=np.uint8)
        rows = [data[i].tobytes() for i in range(3)]
        expected = _scalar_mat_vec(matrix, data)
        out = np.full((4, 17), 0xAB, dtype=np.uint8)
        assert GF256.mat_vec_into(matrix, rows, out) is out
        assert np.array_equal(out, expected)
        # Any bytes-like row: views of a buffer multiply like their bytes.
        views = [memoryview(row) for row in rows]
        assert np.array_equal(GF256.mat_vec_into(matrix, views, np.empty_like(out)), expected)

    def test_mat_vec_into_rejects_ragged_rows(self):
        matrix = np.ones((2, 2), dtype=np.uint8)
        with pytest.raises(ValueError):
            GF256.mat_vec_into(matrix, [b"abc", b"ab"], np.empty((2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            GF256.mat_vec_into(matrix, [b"abc"], np.empty((2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            GF256.mat_vec_into(matrix, [b"abc", b"abc"], np.empty((3, 3), dtype=np.uint8))

    def test_mat_vec_into_zero_matrix_row(self):
        matrix = np.array([[0, 0]], dtype=np.uint8)
        out = np.full((1, 2), 7, dtype=np.uint8)
        assert GF256.mat_vec_into(matrix, [b"xy", b"zw"], out).tobytes() == b"\x00\x00"

    def test_mat_mul_matches_scalar_reference(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 256, size=(5, 4), dtype=np.uint8)
        b = rng.integers(0, 256, size=(4, 7), dtype=np.uint8)
        assert np.array_equal(GF256.mat_mul(a, b), _scalar_mat_vec(a, b))
