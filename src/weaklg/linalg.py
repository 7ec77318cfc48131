"""Exact integer linear algebra by fraction-free elimination.

One routine, `echelon`, brings an integer matrix to row echelon form by
Bareiss's fraction-free elimination (Bareiss, Math. Comp. 22, 1968): at each
pivot step every remaining row is updated and divided exactly by the previous
pivot, so every intermediate entry is a minor of the input and stays integral
without growing in length per step.  `det`, `rank` and `nullspace` read their
answers off that form, in integers throughout.  `axis_generator` is the
one elimination by Euclid's algorithm, over the integers.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

Matrix = Sequence[Sequence[int]]


def echelon(matrix: Matrix) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free row echelon form of an integer matrix.

    Returns (rows, pivots, sign): row i of rows has its leading nonzero entry
    in column pivots[i] for i < len(pivots), the rows after those are zero,
    and sign is the parity (+1 or -1) of the row swaps made.
    """
    work = [list(row) for row in matrix]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    for col in range(ncols):
        row = len(pivots)
        if row == len(work):
            break
        for pivot in range(row, len(work)):
            if work[pivot][col] != 0:
                break
        else:
            continue
        if pivot != row:
            work[row], work[pivot] = work[pivot], work[row]
            sign = -sign
        top = work[row]
        pv = top[col]
        for r in range(row + 1, len(work)):
            factor = work[r][col]
            work[r] = [(pv * a - factor * b) // prev for a, b in zip(work[r], top)]
        prev = pv
        pivots.append(col)
    return work, pivots, sign


def axis_generator(matrix: Matrix) -> int:
    """The d >= 0 with dZ = {i : (0, ..., 0, i) is an integer combination of
    the rows of an integer matrix}.

    Adding a multiple of one row to another keeps the rows' integer span.
    In each column but the last, Euclid's algorithm on the rows nonzero
    there leaves one such row, which no combination vanishing there uses,
    so it is set aside.  The rows left are 0 but in the last column."""
    work = [list(row) for row in matrix]
    for col in range(len(work[0]) - 1 if work else 0):
        live = [row for row in work if row[col]]
        while len(live) > 1:
            top = min(live, key=lambda row: abs(row[col]))
            for row in live:
                if row is not top:
                    q = row[col] // top[col]
                    row[:] = [a - q * b for a, b in zip(row, top)]
            live = [row for row in live if row[col]]
        work = [row for row in work if not row[col]]
    return gcd(*(row[-1] for row in work))


def det(matrix: Matrix) -> int:
    """Exact determinant of a square integer matrix; 1 for the 0 x 0 matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    work, pivots, sign = echelon(matrix)
    # the last Bareiss pivot is the determinant of the row-swapped matrix
    return sign * work[-1][-1] if len(pivots) == n else 0


def rank(matrix: Matrix) -> int:
    """Rank of an integer matrix over the rationals."""
    return len(echelon(matrix)[1])


def nullspace(matrix: Matrix, ncols: int) -> list[list[int]]:
    """Integer basis of the rational nullspace of an integer matrix with ncols
    columns.

    One basis vector per free (non-pivot) column, in column order: the
    solution with 0 in the other free columns and, in its own, the last pivot
    d, which is the determinant of the pivot rows and columns.  By Cramer's
    rule d times a rational solution is integral, so every division of the
    back substitution is exact.  With one free column the vector is, up to
    sign, the cofactor vector of the pivot rows.
    """
    work, pivots, _ = echelon(matrix)
    d = work[len(pivots) - 1][pivots[-1]] if pivots else 1
    pivot_set = set(pivots)
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_set):
        x = [0] * ncols
        x[free] = d
        for r in reversed(range(len(pivots))):
            c = pivots[r]
            row = work[r]
            x[c] = -sum(row[k] * x[k] for k in range(c + 1, ncols)) // row[c]
        basis.append(x)
    return basis

