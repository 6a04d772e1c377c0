import os

# One BLAS thread, set before numpy loads: the solvers' matrix products have
# at most 20 columns, and at two OpenBLAS threads they run several times
# slower than at one. A value already in the environment is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from meterfill.data import TensorDataset


def make_dataset(tensor, mask=None, channels=None):
    """Wrap arrays in a TensorDataset with default integer labels."""
    tensor = np.asarray(tensor, dtype=np.float64)
    if mask is None:
        mask = np.ones(tensor.shape, dtype=bool)
    if channels is None:
        channels = tuple(f"user_{k + 1:03d}" for k in range(tensor.shape[2]))
    return TensorDataset(
        tensor=tensor,
        mask=np.asarray(mask, dtype=bool),
        day_labels=tuple(range(1, tensor.shape[0] + 1)),
        slot_labels=tuple(range(1, tensor.shape[1] + 1)),
        channel_labels=channels,
    )


def reference_svd_svt(m, tau):
    """Singular value thresholding by thin SVD: ``U diag(max(s - tau, 0)) V^T``.

    The SVD-based svt the Gram path replaced; the parity tests run the
    reference loops with it.
    """
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=np.float64), full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vt


@pytest.fixture
def rng():
    return np.random.default_rng(0)
