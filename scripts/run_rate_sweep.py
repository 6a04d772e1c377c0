"""Missing-rate sweep on a synthetic multi-user load tensor.

Compares the CP-factor solver against the unfolding-based comparator over
10-90% random missing data, plus the naive baselines at 10, 30 and 50% as a
reference for the low-rate end of the sweep. They could score every rate:
a day/channel series with no observation keeps its channel's mean.
"""

import os

# One BLAS thread, set before numpy loads: each solver's worker thread assumes
# one BLAS thread per solver thread, and OpenBLAS's default count nearly doubled
# HaLRTC's ms/iter on 31x48x114 at 90% missing (README, "BLAS threads").
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse

from meterfill.benchmark import format_table, run_benchmark, write_results_csv
from meterfill.data import SynthSpec, synth_load_tensor


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=int, nargs=3, default=(30, 48, 50))
    ap.add_argument("--rank", type=int, default=25, help="true CP rank of the data")
    ap.add_argument("--weight-decay", type=float, default=0.8)
    ap.add_argument("--noise", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=10)
    ap.add_argument("--output", default=None, help="results CSV path")
    args = ap.parse_args()

    spec = SynthSpec(
        dims=tuple(args.dims), rank=args.rank, noise=args.noise,
        weight_decay=args.weight_decay,
    )
    ds = synth_load_tensor(spec, seed=args.seed).dataset
    rates = [round(0.1 * k, 10) for k in range(1, 10)]

    results = run_benchmark(ds, rates, ["cpd_lrtc", "halrtc"], seed=args.seed)
    results += run_benchmark(
        ds, [0.1, 0.3, 0.5], ["mean", "interp"], seed=args.seed
    )
    print(format_table(results), end="")
    if args.output:
        write_results_csv(results, args.output)
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
