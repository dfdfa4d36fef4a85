"""Helpers shared by the caloron, Taub-NUT and acceptance tests: the
right-normal residual of m > 0 matrix data, and one entry of a matrix of
either backend moved by a small amount."""

from fractions import Fraction

import numpy as np

from bowmonad import numkit as nk


def right_normal_residual(data) -> float:
    """Deviation of monodromy^-1 M monodromy from the right-normal pattern: the
    head block B0, the single bottom row D2, the shift block, and arbitrary
    entries only in the final column."""
    k, m = data.k, data.m
    N = nk.to_float(data.monodromy)
    M = nk.to_float(data.normal_form)
    right = np.linalg.inv(N) @ M @ N
    want = np.zeros_like(right)
    want[:k, :k] = nk.to_float(data.B0)
    want[k:k + 1, :k] = nk.to_float(data.D2row)
    want[k:, k:] = np.eye(m, k=-1)
    # free final column
    want[:, k + m - 1] = right[:, k + m - 1]
    return float(np.max(np.abs(right - want)))


def nudged(M, i: int, j: int, by=Fraction(1, 10 ** 12)):
    """M with entry (i, j) moved by `by`, on M's backend."""
    E = np.zeros(M.shape, dtype=object)
    E[i, j] = by
    return M + (nk.exact_matrix(E) if nk.is_exact(M) else E.astype(complex))
