import os

# One BLAS thread, set before numpy loads: the solvers' matrix products have
# at most 20 columns, and at two OpenBLAS threads they run several times
# slower than at one. A value already in the environment is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from meterfill.data import LAYOUT_MULTI_USER, TensorDataset


def make_dataset(tensor, mask=None, layout=LAYOUT_MULTI_USER, channels=None):
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
        layout=layout,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)
