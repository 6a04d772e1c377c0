"""SVT operand sizes, equal-budget timing and peak memory for the two solvers.

Runs both solvers for an identical iteration count on the same masked
tensor and prints the matrix shapes each submits to singular value
thresholding along with the best wall time of three solves and its time
per iteration; the factor solver's operands stay at I_n x R while the
comparator thresholds full unfoldings. One solve lasts a fraction of a
second, too short to time once on a shared host. A fourth, untimed solve
under ``tracemalloc`` gives each solver's peak memory, in tensors of the
input's size; tracing slows a solve by about a tenth, so no timed solve runs
under it.
"""

import argparse
import tracemalloc

from meterfill.cpd_lrtc import SolverConfig, complete
from meterfill.data import SynthSpec, derive_seed, simulate_missing, synth_load_tensor
from meterfill.halrtc import HalrtcConfig, complete_halrtc

# Solves per method; the fastest is reported.
REPEATS = 3


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=int, nargs=3, default=(30, 48, 50))
    ap.add_argument("--rank", type=int, default=20)
    ap.add_argument("--iters", type=int, default=40)
    ap.add_argument("--rate", type=float, default=0.3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    ds = synth_load_tensor(SynthSpec(dims=tuple(args.dims), rank=3), seed=args.seed).dataset
    masked = simulate_missing(ds, args.rate, derive_seed(args.seed, "mask", f"{args.rate:.12g}"))

    budget = dict(epsilon=1e-12, max_iters=args.iters)
    solvers = (
        ("cpd_lrtc", lambda: complete(masked.tensor, masked.mask, SolverConfig(rank=args.rank, **budget))),
        ("halrtc", lambda: complete_halrtc(masked.tensor, masked.mask, HalrtcConfig(**budget))),
    )
    best = {}
    for name, solve in solvers:
        rep = min((solve() for _ in range(REPEATS)), key=lambda r: r.wall_time)
        best[name] = rep.wall_time
        tracemalloc.start()
        try:
            solve()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        shapes = ", ".join(f"{r}x{c}" for r, c in rep.svd_shapes)
        print(
            f"{name:>8}: {rep.iterations} iters, best of {REPEATS} {rep.wall_time:.3f}s "
            f"({1e3 * rep.wall_time / rep.iterations:.2f} ms/iter), "
            f"peak {peak / masked.tensor.nbytes:.2f} tensors, SVT operands [{shapes}]"
        )
    print(f"speedup: {best['halrtc'] / best['cpd_lrtc']:.1f}x")


if __name__ == "__main__":
    main()
