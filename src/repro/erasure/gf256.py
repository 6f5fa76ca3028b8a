"""Arithmetic over the finite field GF(2^8).

The field is realised as GF(2)[x] modulo the AES polynomial
``x^8 + x^4 + x^3 + x + 1`` (0x11B).  Scalar multiplication and division go
through exponential/logarithm tables keyed by the generator ``3``.

The bulk operations used by the Reed-Solomon hot path are table-driven and
fully vectorised:

* ``_MUL_TABLE`` is the complete 256 x 256 product table, built once at
  import time.  Multiplying a whole shard by a fixed coefficient is then a
  single table map — no logarithm lookups, no zero masking.
* The per-coefficient map runs through ``bytes.translate`` with the
  coefficient's 256-byte row of the product table: a tight C loop at close
  to one byte per nanosecond whose tables for an entire code matrix total a
  few kilobytes, so they stay L1-resident even when the protocol hashes and
  copies megabytes between encode calls.  (A 65536-entry byte-pair gather
  via ``np.take`` benchmarks the same speed in isolation, but its tables for
  one code matrix are several megabytes and fall out of cache under real
  workloads — measured 1.8x slower end-to-end; the full ``(m, k, width)``
  product-cube gather is 5-6x slower still.)

``mat_vec_into`` — the Reed-Solomon encode/decode kernel, which writes into
a caller's array — therefore spends no Python time proportional to the data
size: the only remaining Python loop iterates over the ``m x k`` coefficient
grid of the (small) code matrix, while every O(bytes) operation is a
translate map or a numpy XOR.
"""

from __future__ import annotations

import numpy as np

_PRIMITIVE_POLY = 0x11B
_GENERATOR = 0x03
_FIELD_SIZE = 256


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(2 * _FIELD_SIZE, dtype=np.int32)
    log = np.zeros(_FIELD_SIZE, dtype=np.int32)
    value = 1
    for power in range(_FIELD_SIZE - 1):
        exp[power] = value
        log[value] = power
        # multiply value by the generator (0x03 == x + 1), i.e. value*2 ^ value
        doubled = value << 1
        if doubled & 0x100:
            doubled ^= _PRIMITIVE_POLY
        value = doubled ^ value
    # duplicate the table so that exp[a + b] never needs a modulo reduction
    for power in range(_FIELD_SIZE - 1, 2 * _FIELD_SIZE):
        exp[power] = exp[power - (_FIELD_SIZE - 1)]
    return exp, log


_EXP_TABLE, _LOG_TABLE = _build_tables()


def _build_mul_table() -> np.ndarray:
    a = np.arange(_FIELD_SIZE).reshape(-1, 1)
    b = np.arange(_FIELD_SIZE).reshape(1, -1)
    table = _EXP_TABLE[_LOG_TABLE[a] + _LOG_TABLE[b]].astype(np.uint8)
    table[0, :] = 0
    table[:, 0] = 0
    table.setflags(write=False)
    return table


#: Full product table: ``_MUL_TABLE[a, b] == a * b`` in GF(256).
_MUL_TABLE = _build_mul_table()

#: Lazily built 256-byte ``bytes.translate`` tables, one per coefficient:
#: ``_TRANSLATE_TABLES[c][x] == c * x`` in GF(256).
_TRANSLATE_TABLES: dict[int, bytes] = {}


def _translate_table(coeff: int) -> bytes:
    table = _TRANSLATE_TABLES.get(coeff)
    if table is None:
        table = _MUL_TABLE[coeff].tobytes()
        _TRANSLATE_TABLES[coeff] = table
    return table


class GF256:
    """Stateless helpers for GF(2^8) arithmetic on scalars, vectors and matrices."""

    exp_table = _EXP_TABLE
    log_table = _LOG_TABLE
    mul_table = _MUL_TABLE

    @staticmethod
    def add(a: int, b: int) -> int:
        """Field addition (XOR)."""
        return a ^ b

    @staticmethod
    def sub(a: int, b: int) -> int:
        """Field subtraction (identical to addition in characteristic 2)."""
        return a ^ b

    @staticmethod
    def mul(a: int, b: int) -> int:
        """Field multiplication via the product table."""
        return int(_MUL_TABLE[a, b])

    @staticmethod
    def inv(a: int) -> int:
        """Multiplicative inverse of a non-zero field element."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return int(_EXP_TABLE[(_FIELD_SIZE - 1) - _LOG_TABLE[a]])

    @staticmethod
    def div(a: int, b: int) -> int:
        """Field division ``a / b``."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(256)")
        if a == 0:
            return 0
        return int(_EXP_TABLE[_LOG_TABLE[a] - _LOG_TABLE[b] + (_FIELD_SIZE - 1)])

    @staticmethod
    def pow(a: int, exponent: int) -> int:
        """Raise a field element to a non-negative integer power."""
        if exponent == 0:
            return 1
        if a == 0:
            return 0
        log_a = int(_LOG_TABLE[a])
        return int(_EXP_TABLE[(log_a * exponent) % (_FIELD_SIZE - 1)])

    # --- matrix helpers -------------------------------------------------

    @staticmethod
    def mat_vec_into(matrix: np.ndarray, rows: list, out: np.ndarray) -> np.ndarray:
        """Multiply ``matrix`` (m x k, uint8) by ``k`` equal-length byte rows into ``out``.

        ``out`` is a writable ``(m, width)`` uint8 array; product row ``i``
        is written to ``out[i]`` in place, so a caller chooses where the rows
        land (the parity rows of an encode buffer, a decode's joined block).
        Every element product is carried out in GF(256); sums are XORs.  This
        is the hot kernel of Reed-Solomon encoding and decoding: each product
        is one ``bytes.translate`` pass, each sum one numpy XOR, and the
        Python loop only walks the m x k coefficient grid.  A row may be any
        bytes-like buffer; one that is not ``bytes`` is copied for the call
        (only ``bytes`` translate, and a copy costs ~1/30 of a translate).
        """
        m, k = matrix.shape
        if len(rows) != k:
            raise ValueError(f"matrix has {k} columns but got {len(rows)} rows")
        width = out.shape[1]
        if out.shape[0] != m:
            raise ValueError(f"matrix has {m} rows but out has {out.shape[0]}")
        if any(len(row) != width for row in rows):
            raise ValueError("all rows must have the output's length")

        rows = [bytes(row) for row in rows]
        views = [np.frombuffer(row, dtype=np.uint8) for row in rows]
        for row_coeffs, acc in zip(matrix.tolist(), out):
            started = False
            for col, coeff in enumerate(row_coeffs):
                if coeff == 0:
                    continue
                if coeff == 1:
                    src = views[col]
                else:
                    src = np.frombuffer(
                        rows[col].translate(_translate_table(coeff)), dtype=np.uint8
                    )
                if not started:
                    started = True
                    np.copyto(acc, src)
                else:
                    np.bitwise_xor(acc, src, out=acc)
            if not started:
                acc.fill(0)
        return out

    @staticmethod
    def mat_vec_rows(matrix: np.ndarray, data: np.ndarray) -> np.ndarray:
        """Multiply ``matrix`` (m x k, uint8) by ``data`` (k x width, uint8).

        Array-shaped form of :meth:`mat_vec_into`, for matrix algebra and tests.
        """
        m, k = matrix.shape
        if data.shape[0] != k:
            raise ValueError(f"matrix has {k} columns but data has {data.shape[0]} rows")
        data = np.ascontiguousarray(data, dtype=np.uint8)
        out = np.empty((m, data.shape[1]), dtype=np.uint8)
        return GF256.mat_vec_into(matrix, list(data), out)

    @staticmethod
    def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Multiply two matrices over GF(256) (used to build code matrices)."""
        if a.shape[1] != b.shape[0]:
            raise ValueError("incompatible matrix shapes")
        return GF256.mat_vec_rows(
            np.ascontiguousarray(a, dtype=np.uint8),
            np.ascontiguousarray(b, dtype=np.uint8),
        )

    @staticmethod
    def mat_inv(matrix: np.ndarray) -> np.ndarray:
        """Invert a square matrix over GF(256) by Gauss-Jordan elimination.

        Row scaling and elimination are whole-row table gathers, so the
        Python loop is only over pivot columns.
        """
        size = matrix.shape[0]
        if matrix.shape[1] != size:
            raise ValueError("only square matrices can be inverted")
        work = np.ascontiguousarray(matrix, dtype=np.uint8).copy()
        inverse = np.eye(size, dtype=np.uint8)
        for col in range(size):
            pivot_candidates = np.nonzero(work[col:, col])[0]
            if pivot_candidates.size == 0:
                raise ValueError("matrix is singular over GF(256)")
            pivot_row = col + int(pivot_candidates[0])
            if pivot_row != col:
                work[[col, pivot_row]] = work[[pivot_row, col]]
                inverse[[col, pivot_row]] = inverse[[pivot_row, col]]
            pivot_inv = GF256.inv(int(work[col, col]))
            work[col] = _MUL_TABLE[pivot_inv][work[col]]
            inverse[col] = _MUL_TABLE[pivot_inv][inverse[col]]
            factors = work[:, col].copy()
            factors[col] = 0
            rows = np.nonzero(factors)[0]
            if rows.size:
                work[rows] ^= _MUL_TABLE[factors[rows][:, None], work[col][None, :]]
                inverse[rows] ^= _MUL_TABLE[factors[rows][:, None], inverse[col][None, :]]
        return inverse

    @staticmethod
    def vandermonde(rows: int, cols: int) -> np.ndarray:
        """Build a ``rows x cols`` Vandermonde matrix with evaluation points 0..rows-1.

        Row ``i`` is ``[i^0, i^1, ..., i^(cols-1)]`` in GF(256).  Any ``cols``
        distinct rows are linearly independent, which is what makes the
        derived Reed-Solomon code MDS.
        """
        if rows > 256:
            raise ValueError("GF(256) Vandermonde supports at most 256 rows")
        points = np.arange(rows, dtype=np.int64)
        exponents = np.arange(cols, dtype=np.int64)
        logs = (_LOG_TABLE[points][:, None] * exponents[None, :]) % (_FIELD_SIZE - 1)
        out = _EXP_TABLE[logs].astype(np.uint8)
        if rows > 0:
            # Evaluation point 0: 0^0 == 1, 0^j == 0 for j > 0 (the log table
            # has no entry for 0, so the vectorised formula is wrong there).
            out[0, :] = 0
            if cols > 0:
                out[0, 0] = 1
        return out
