"""Dense order-3 tensor arithmetic.

Unfolding/folding, the Khatri-Rao product, CP reconstruction and Frobenius
norms. Everything operates on plain float64 numpy arrays of shape
``(I1, I2, I3)``; missing values are carried by a separate boolean mask,
never by NaN sentinels inside the tensor.
"""

from __future__ import annotations

import numpy as np

Dims = tuple[int, int, int]


def as_tensor(values) -> np.ndarray:
    """Validate and return a dense order-3 float64 tensor."""
    t = np.asarray(values, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got ndim={t.ndim}")
    if min(t.shape) < 1:
        raise ValueError(f"tensor dimensions must be positive, got {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("tensor entries must be finite (no NaN/Inf)")
    return t


def as_mask(observed, dims: Dims | None = None) -> np.ndarray:
    """Validate an observation mask (True = observed) against tensor dims."""
    m = np.asarray(observed)
    if m.dtype != np.bool_:
        if not np.isin(m, (0, 1)).all():
            raise ValueError("mask entries must be boolean (or 0/1)")
        m = m.astype(bool)
    if m.ndim != 3:
        raise ValueError(f"expected an order-3 mask, got ndim={m.ndim}")
    if dims is not None and m.shape != tuple(dims):
        raise ValueError(f"mask shape {m.shape} does not match dims {tuple(dims)}")
    return m


def check_int(value, name: str, low: int) -> None:
    """Refuse a value that is not an integer (bools included) or lies below ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_mode(n: int) -> None:
    if n not in (1, 2, 3):
        raise ValueError(f"mode index must be 1, 2, or 3, got {n}")


def unfold(t: np.ndarray, n: int) -> np.ndarray:
    """Mode-n unfolding (n is 1-based).

    Row i of the result indexes dimension n; along a row the remaining
    indices vary with the earlier mode fastest, i.e. element
    ``(i1, i2, i3)`` lands in column ``1 + sum_{k!=n} (i_k - 1) * prod of
    the non-n dims before k`` (1-based).
    """
    _check_mode(n)
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got ndim={t.ndim}")
    return np.reshape(np.moveaxis(t, n - 1, 0), (t.shape[n - 1], -1), order="F")


def fold(m: np.ndarray, n: int, dims: Dims) -> np.ndarray:
    """Inverse of :func:`unfold`: ``fold(unfold(t, n), n, t.shape) == t``."""
    _check_mode(n)
    m = np.asarray(m, dtype=np.float64)
    dims = tuple(int(d) for d in dims)
    rest = [d for k, d in enumerate(dims) if k != n - 1]
    expected = (dims[n - 1], int(np.prod(rest)))
    if m.ndim != 2 or m.shape != expected:
        raise ValueError(f"matrix shape {m.shape} does not match mode-{n} unfolding {expected}")
    return np.moveaxis(np.reshape(m, (dims[n - 1], *rest), order="F"), 0, n - 1)


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product of two matrices with equal column counts.

    Column r of the result is ``kron(a[:, r], b[:, r])``, so row ``i * J + j``
    holds ``a[i, r] * b[j, r]``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects two matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column counts differ: {a.shape[1]} vs {b.shape[1]}")
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], a.shape[1])


def cp_reconstruct(factors) -> np.ndarray:
    """Tensor from three CP factor matrices: sum of rank-one outer products.

    Entry ``(i, j, k)`` is ``sum_r U1[i, r] * U2[j, r] * U3[k, r]``. One
    matrix product ``U1 @ khatri_rao(U2, U3).T`` writes the result straight
    into its C-ordered buffer, with no temporary of tensor size.
    """
    if len(factors) != 3:
        raise ValueError(f"expected 3 factor matrices, got {len(factors)}")
    u1, u2, u3 = (np.asarray(f, dtype=np.float64) for f in factors)
    for f in (u1, u2, u3):
        if f.ndim != 2:
            raise ValueError("factor matrices must be 2-D")
    if not (u1.shape[1] == u2.shape[1] == u3.shape[1]):
        raise ValueError("factor matrices must share one column count")
    return (u1 @ khatri_rao(u2, u3).T).reshape(u1.shape[0], u2.shape[0], u3.shape[0])


def fro_norm(t: np.ndarray) -> float:
    """Frobenius norm: square root of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(t, dtype=np.float64)))
