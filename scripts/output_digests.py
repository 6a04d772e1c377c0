"""Digests of complete_dataset's outputs on a fixed list of seeded solves.

Prints one line per case: the sha256 of the completion's bytes, the
iteration count, the converged flag and the sha256 of the residual history.
Two versions of the package give bit-identical completions on these cases
exactly when their printed lines are equal, so a refactor is checked by
running this script on both and diffing the output.

The cases are all four methods on a rank-3 users tensor at 50% and 90%
missing, CPD-LRTC at rank 5 and at its default rank, and all four methods on
a single-user electrical tensor at 50% missing with pre-fill on and off.
"""

import os

# One BLAS thread, set before numpy loads (as tests/conftest.py does): the
# thread count can change the order of a product's sums, and so its bits.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib

import numpy as np

from meterfill.benchmark import complete_dataset
from meterfill.cpd_lrtc import SolverConfig
from meterfill.data import (
    DataError,
    SynthSpec,
    derive_seed,
    simulate_missing,
    synth_electrical_tensor,
    synth_load_tensor,
)


def _sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def cases(dims):
    """``(name, masked dataset, complete_dataset keyword arguments)`` per case."""
    users = synth_load_tensor(SynthSpec(dims=dims, rank=3, noise=0.05), seed=7).dataset
    for rate in (0.5, 0.9):
        masked = simulate_missing(users, rate, derive_seed(11, "mask", f"{rate:.12g}"))
        tag = f"users-{rate:g}"
        yield f"{tag}-cpd_lrtc-rank5", masked, dict(method="cpd_lrtc", cpd_cfg=SolverConfig(rank=5))
        yield f"{tag}-cpd_lrtc-default", masked, dict(method="cpd_lrtc")
        for method in ("halrtc", "mean", "interp"):
            yield f"{tag}-{method}", masked, dict(method=method)
    electrical = synth_electrical_tensor(dims[0], dims[1], seed=5)
    masked = simulate_missing(electrical, 0.5, derive_seed(9, "mask", "0.5"))
    for prefill in (True, False):
        for method in ("cpd_lrtc", "halrtc", "mean", "interp"):
            tag = "prefill" if prefill else "no-prefill"
            yield f"electrical-0.5-{tag}-{method}", masked, dict(method=method, prefill=prefill)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=int, nargs=3, default=(31, 48, 114),
                    help="users tensor shape; the electrical tensor takes its days and slots")
    args = ap.parse_args()

    print("case  completion_sha256  iterations  converged  history_sha256")
    for name, masked, kwargs in cases(tuple(args.dims)):
        try:
            report = complete_dataset(masked, **kwargs)
        except DataError as err:
            print(f"{name}  failed: {err}")
            continue
        print(
            f"{name}  {_sha256(report.completed)}  {report.iterations}  {report.converged}  "
            f"{_sha256(report.residual_history)}"
        )


if __name__ == "__main__":
    main()
